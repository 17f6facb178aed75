package repro.storage

import java.util.concurrent.{ArrayBlockingQueue, TimeUnit}
import java.util.concurrent.atomic.AtomicReference
import repro.util.Parallel
import scala.collection.immutable.ArraySeq

/** One streamed unit of retrieved data — the paper's gRPC "send buffer"
  * (§4.2.3): whenever a retrieval thread fills its buffer, or finishes its
  * last file, it emits the buffer to the requesting worker.
  */
final case class PayloadBatch(keys: Array[Long], payloads: Array[Array[Byte]], labels: Array[Long]) {
  def size: Int = keys.length
}

/** Sample-level payload retrieval (§4.2.3).
  *
  * Given an arbitrary set of sample keys, the service partitions the key
  * list into `nThreads` equal parts; each thread resolves its keys to
  * (file, offset) via the registry's key index (sorted by file), instantiates
  * a [[FileWrapper]] per file, extracts the requested samples into a send
  * buffer, and emits the buffer whenever it is full or all files have been
  * iterated. Emitted buffers stream through a bounded queue so consumers
  * start processing before the whole request completes — the behaviour that
  * hides partition-size latency differences in §5.1.1.
  *
  * @param sendBufferSize samples per emitted [[PayloadBatch]]
  */
final class StorageService(registry: SampleRegistry, fs: FileSystemWrapper,
                           val sendBufferSize: Int = 4096) {
  require(sendBufferSize > 0, "sendBufferSize must be positive")

  /** Stream the payloads for `keys` using `nThreads` retrieval threads.
    * Batches arrive in completion order across threads; within a thread,
    * file order. The iterator must be fully consumed (or the underlying
    * threads leak); all internal errors are rethrown on the consumer side.
    */
  def retrieve(keys: Array[Long], nThreads: Int): Iterator[PayloadBatch] = {
    require(nThreads > 0, "nThreads must be positive")
    if (keys.isEmpty) return Iterator.empty

    val queue   = new ArrayBlockingQueue[AnyRef](math.max(8, nThreads * 2))
    val failure = new AtomicReference[Throwable](null)
    val parts   = splitEven(keys, nThreads)
    val active  = parts.count(_.nonEmpty)
    val Done    = new Object

    parts.filter(_.nonEmpty).foreach { part =>
      Parallel.fork("storage-retrieval") {
        try retrievePart(part, queue.put(_))
        catch {
          case e: Throwable => failure.compareAndSet(null, e)
        } finally queue.put(Done)
      }
    }

    new Iterator[PayloadBatch] {
      private var remaining = active
      private var nextBatch: PayloadBatch = _

      private def advance(): Unit = {
        nextBatch = null
        while (nextBatch == null && remaining > 0) {
          queue.poll(600, TimeUnit.SECONDS) match {
            case null       => throw new IllegalStateException("storage retrieval timed out")
            case Done       => remaining -= 1
            case b: PayloadBatch => nextBatch = b
            case other      => throw new IllegalStateException(s"unexpected $other")
          }
        }
        if (nextBatch == null && failure.get() != null) throw failure.get()
      }

      advance()
      override def hasNext: Boolean = nextBatch != null
      override def next(): PayloadBatch = {
        val b = nextBatch; advance()
        if (failure.get() != null) throw failure.get()
        b
      }
    }
  }

  /** Convenience: retrieve and concatenate everything (tests, small sets). */
  def retrieveAll(keys: Array[Long], nThreads: Int = 1): PayloadBatch = {
    val batches  = retrieve(keys, nThreads).toIndexedSeq
    PayloadBatch(
      batches.flatMap(_.keys).toArray,
      batches.flatMap(_.payloads).toArray,
      batches.flatMap(_.labels).toArray)
  }

  /** Throw the `NoSuchElementException` a retrieval of `keys` would throw
    * if any of them is unknown or deleted.
    */
  def requireKeys(keys: Array[Long]): Unit = lookupAll(keys)

  /** The key index rows of `keys`, sorted by (file, idx); throws if any
    * key is unknown or deleted.
    */
  private def lookupAll(keys: Array[Long]): Array[SampleMeta] = {
    val metas = registry.lookup(keys)
    if (metas.length != keys.length) {
      val missing = keys.toSet -- metas.map(_.key).toSet
      throw new NoSuchElementException(
        s"${missing.size} unknown sample keys, e.g. ${missing.take(3).mkString(", ")}")
    }
    metas
  }

  /** One retrieval thread's work: key-index lookup, then file-by-file
    * extraction into send buffers.
    */
  private def retrievePart(part: Array[Long], emit: PayloadBatch => Unit): Unit = {
    val metas = lookupAll(part)
    val bufKeys     = new Array[Long](sendBufferSize)
    val bufPayloads = new Array[Array[Byte]](sendBufferSize)
    val bufLabels   = new Array[Long](sendBufferSize)
    var fill        = 0

    def flush(): Unit = if (fill > 0) {
      emit(PayloadBatch(
        java.util.Arrays.copyOf(bufKeys, fill),
        java.util.Arrays.copyOf(bufPayloads, fill),
        java.util.Arrays.copyOf(bufLabels, fill)))
      fill = 0
    }

    var i = 0
    while (i < metas.length) {
      // metas is sorted by (file, idx): take the run belonging to one file,
      // read it with one getSamples call and copy it into the send buffer.
      val fileId = metas(i).fileId
      var j = i
      while (j < metas.length && metas(j).fileId == fileId) j += 1
      val indices = new Array[Int](j - i)
      var r = 0
      while (r < indices.length) { indices(r) = metas(i + r).indexInFile; r += 1 }
      val fm       = registry.fileMeta(fileId)
      val wrapper  = FileWrapperType.instantiate(fm.wrapperType, fs, fm.path)
      val payloads = wrapper.getSamples(ArraySeq.unsafeWrapArray(indices))
      r = 0
      while (r < payloads.length) {
        val m = metas(i + r)
        bufKeys(fill) = m.key
        bufPayloads(fill) = payloads(r)
        bufLabels(fill) = m.label
        fill += 1
        if (fill == sendBufferSize) flush()
        r += 1
      }
      i = j
    }
    flush()
  }

  private def splitEven(keys: Array[Long], n: Int): Seq[Array[Long]] = {
    val per = (keys.length + n - 1) / n
    keys.grouped(math.max(1, per)).toSeq.padTo(n, Array.empty[Long])
  }
}
