package repro.trainer

import repro.util.Parallel
import scala.collection.AbstractIterator
import scala.collection.mutable

/** The dataloader shared by [[OnlineDataset]] (§4.2.1) and the §5.1.1
  * local baseline [[LocalFileDataset]], so that the two are compared on
  * one dataloader. Each worker is a pull iterator of batches, run on its
  * own pooled task of a [[repro.util.Parallel.FanOut]], which buffers up
  * to `QueueBatches` of its batches ahead of the consumer. The consumer
  * takes one batch from each worker in turn (§4.2.1); a worker whose
  * stream ends leaves the rotation. The first failure of any worker stops
  * the others and is rethrown to the consumer.
  */
private[trainer] object Loader {

  /** Batches a worker may have ready before it waits for the consumer. */
  private val QueueBatches = 4

  /** Run `worker(0)`, …, `worker(numWorkers - 1)` and return their batches
    * round-robin. `close()` stops every worker, and with it what the
    * workers read: close an iterator that is not read to its end.
    */
  def batches(numWorkers: Int)(worker: Int => Iterator[TrainBatch]): Iterator[TrainBatch] with AutoCloseable = {
    val streams = Parallel.fanOut("loader-worker", numWorkers, numWorkers, numWorkers, QueueBatches)(worker)
    new AbstractIterator[TrainBatch] with AutoCloseable {
      private val rotation = mutable.Queue.range(0, numWorkers)

      override def hasNext: Boolean = {
        while (rotation.nonEmpty && !streams(rotation.head).hasNext) rotation.dequeue()
        rotation.nonEmpty
      }
      override def next(): TrainBatch = {
        if (!hasNext) throw new NoSuchElementException("next on an exhausted loader")
        val w = rotation.dequeue()
        rotation.enqueue(w)
        streams(w).next()
      }
      override def close(): Unit = streams.close()
    }
  }

  /** Cut a worker's parsed chunks into batches of `batchSize`: batch `k`
    * holds samples `[k·batchSize, (k+1)·batchSize)` of the chunk stream,
    * and only the last batch may be partial. A batch may span several
    * chunks, and a chunk several batches. `close()` closes `source`, what
    * the chunks are read from.
    */
  def cut(chunks: Iterator[TrainBatch], batchSize: Int,
          source: AutoCloseable = () => ()): Iterator[TrainBatch] with AutoCloseable =
    new AbstractIterator[TrainBatch] with AutoCloseable {
      // The partly consumed chunk and the next position in it.
      private var chunk = TrainBatch(Array.empty, Array.empty, Array.empty, Array.empty)
      private var pos   = 0

      override def hasNext: Boolean = {
        while (pos == chunk.size && chunks.hasNext) { chunk = chunks.next(); pos = 0 }
        pos < chunk.size
      }
      override def next(): TrainBatch = {
        if (!hasNext) throw new NoSuchElementException("next on an exhausted worker")
        val keys = new Array[Long](batchSize)
        val xs   = new Array[Array[Float]](batchSize)
        val ys   = new Array[Int](batchSize)
        val ws   = new Array[Double](batchSize)
        var n    = 0
        while (n < batchSize && hasNext) {
          val k = math.min(chunk.size - pos, batchSize - n)
          System.arraycopy(chunk.keys, pos, keys, n, k)
          System.arraycopy(chunk.features, pos, xs, n, k)
          System.arraycopy(chunk.labels, pos, ys, n, k)
          System.arraycopy(chunk.weights, pos, ws, n, k)
          pos += k
          n += k
        }
        if (n == batchSize) TrainBatch(keys, xs, ys, ws)
        else TrainBatch(java.util.Arrays.copyOf(keys, n), java.util.Arrays.copyOf(xs, n),
          java.util.Arrays.copyOf(ys, n), java.util.Arrays.copyOf(ws, n))
      }
      override def close(): Unit = source.close()
    }
}
