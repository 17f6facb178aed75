package repro.trainer

import java.util.concurrent.ArrayBlockingQueue
import java.util.concurrent.atomic.AtomicReference
import repro.util.Parallel
import scala.collection.mutable

/** The dataloader machinery shared by [[OnlineDataset]] (§4.2.1) and the
  * §5.1.1 local baseline [[LocalFileDataset]], so that the two are
  * compared on one dataloader: one thread per worker runs that worker's
  * producer, which parses samples into chunks and puts them on the
  * worker's bounded queue in its own order.
  * The consumer cuts batches of `batchSize` from the workers' chunks,
  * taking workers round-robin. The first failure of any worker makes the
  * other producers stop early and is rethrown to the consumer.
  */
private[trainer] object Loader {

  /** A worker's end of its queue, plus the loader-wide failure flag. */
  final class Sink private[Loader] (queue: ArrayBlockingQueue[AnyRef],
                                    failure: AtomicReference[Throwable]) {
    /** Queue one parsed chunk; blocks while the worker is far enough ahead. */
    def put(chunk: TrainBatch): Unit = queue.put(chunk)
    /** True once any worker failed: producers stop early. */
    def failed: Boolean = failure.get() != null
  }

  private object WorkerDone

  /** Start one thread per producer and return the round-robin batches.
    * A worker's queue holds four batches' worth of chunks of about
    * `chunkSize` samples, and at least two. The iterator must be fully
    * consumed; a worker failure is rethrown once every worker stopped.
    */
  def batches(producers: IndexedSeq[Sink => Unit], batchSize: Int,
              chunkSize: Long): Iterator[TrainBatch] = {
    val failure     = new AtomicReference[Throwable](null)
    val queueChunks = math.max(2L, (4L * batchSize + chunkSize - 1) / chunkSize).toInt
    val queues      = IndexedSeq.fill(producers.size)(new ArrayBlockingQueue[AnyRef](queueChunks))

    producers.indices.foreach { w =>
      val sink = new Sink(queues(w), failure)
      Parallel.fork(s"loader-worker-$w") {
        try producers(w)(sink)
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        finally queues(w).put(WorkerDone)
      }
    }
    assemble(queues, failure, batchSize)
  }

  /** Round-robin batch assembly across workers (§4.2.1): take up to
    * `batchSize` samples from one worker, yield the batch, move to the
    * next; a worker that finishes yields its final partial batch and
    * leaves the rotation. A batch is cut from the worker's parsed chunks,
    * so it may span several chunks and a chunk several batches.
    */
  private def assemble(queues: IndexedSeq[ArrayBlockingQueue[AnyRef]],
                       failure: AtomicReference[Throwable],
                       batchSize: Int): Iterator[TrainBatch] =
    new Iterator[TrainBatch] {
      private val active    = mutable.Queue.empty[Int] ++ queues.indices
      // Each worker's partly consumed chunk and the next position in it.
      private val current   = new Array[TrainBatch](queues.size)
      private val pos       = new Array[Int](queues.size)
      private var nextBatch = fetchNext()

      private def fetchNext(): Option[TrainBatch] = {
        while (active.nonEmpty) {
          val w    = active.dequeue()
          val keys = new Array[Long](batchSize)
          val xs   = new Array[Array[Float]](batchSize)
          val ys   = new Array[Int](batchSize)
          val ws   = new Array[Double](batchSize)
          var n    = 0
          var done = false
          while (n < batchSize && !done) {
            val c = current(w)
            if (c == null || pos(w) == c.size) {
              queues(w).take() match {
                case WorkerDone    => done = true
                case b: TrainBatch => current(w) = b; pos(w) = 0
                case other         => throw new IllegalStateException(s"unexpected $other")
              }
            } else {
              val k = math.min(c.size - pos(w), batchSize - n)
              System.arraycopy(c.keys, pos(w), keys, n, k)
              System.arraycopy(c.features, pos(w), xs, n, k)
              System.arraycopy(c.labels, pos(w), ys, n, k)
              System.arraycopy(c.weights, pos(w), ws, n, k)
              pos(w) += k
              n += k
            }
          }
          if (!done) active.enqueue(w)
          if (n == batchSize) return Some(TrainBatch(keys, xs, ys, ws))
          if (n > 0) return Some(TrainBatch(java.util.Arrays.copyOf(keys, n),
            java.util.Arrays.copyOf(xs, n), java.util.Arrays.copyOf(ys, n),
            java.util.Arrays.copyOf(ws, n)))
        }
        if (failure.get() != null) throw failure.get()
        None
      }

      override def hasNext: Boolean = nextBatch.isDefined
      override def next(): TrainBatch = {
        val b = nextBatch.get
        nextBatch = fetchNext()
        b
      }
    }
}
