package repro.storage

import repro.util.Parallel
import scala.collection.immutable.ArraySeq

/** One streamed unit of retrieved data — the paper's gRPC "send buffer"
  * (§4.2.3): whenever a retrieval thread fills its buffer, or finishes its
  * last file, it emits the buffer to the requesting worker. Row `i` is the
  * key at `positions(i)` of the requested key array.
  */
final case class PayloadBatch(keys: Array[Long], payloads: Array[Array[Byte]], labels: Array[Long],
                              positions: Array[Int]) {
  def size: Int = keys.length
}

/** Sample-level payload retrieval (§4.2.3).
  *
  * Given an arbitrary set of sample keys, the service splits the key list
  * into `nThreads` contiguous parts; each retrieval task resolves its keys
  * to (file, offset) via the registry's key index (sorted by file),
  * instantiates a [[FileWrapper]] per file, and extracts the requested
  * samples into send buffers of `sendBufferSize` samples. Buffers stream
  * to the consumer as they fill, so it starts processing before the whole
  * request completes — the behaviour that hides partition-size latency
  * differences in §5.1.1.
  *
  * @param sendBufferSize samples per emitted [[PayloadBatch]]
  */
final class StorageService(registry: SampleRegistry, fs: FileSystemWrapper,
                           val sendBufferSize: Int = 4096) {
  require(sendBufferSize > 0, "sendBufferSize must be positive")

  /** Stream the payloads for `keys` using `nThreads` retrieval tasks. The
    * batches come part by part, in the order of the key split, and within
    * a part in file order, so the sequence is the same on every call.
    * One part is read on the caller's thread as it iterates. Errors are
    * rethrown on the consumer side, and an abandoned iterator leaves no
    * task blocked: each finishes its part and stops.
    */
  def retrieve(keys: Array[Long], nThreads: Int): Iterator[PayloadBatch] = {
    require(nThreads > 0, "nThreads must be positive")
    val per   = math.max(1, (keys.length + nThreads - 1) / nThreads)
    val parts = (keys.length + per - 1) / per
    def part(p: Int) = retrievePart(keys, p * per, math.min(keys.length, (p + 1) * per))
    if (parts <= 1) Iterator.range(0, parts).flatMap(part)
    else Parallel.ordered("storage-retrieval", parts, parts, parts)(part)
  }

  /** Convenience: retrieve and concatenate everything (tests, small sets). */
  def retrieveAll(keys: Array[Long], nThreads: Int = 1): PayloadBatch = {
    val batches  = retrieve(keys, nThreads).toIndexedSeq
    PayloadBatch(
      batches.flatMap(_.keys).toArray,
      batches.flatMap(_.payloads).toArray,
      batches.flatMap(_.labels).toArray,
      batches.flatMap(_.positions).toArray)
  }

  /** Throw the `NoSuchElementException` a retrieval of `keys` would throw
    * if any of them is unknown or deleted.
    */
  def requireKeys(keys: Array[Long]): Unit = locateAll(keys, 0, keys.length)

  /** The key index rows of `keys(from until until)`, sorted by (file, idx);
    * throws if any key is unknown or deleted.
    */
  private def locateAll(keys: Array[Long], from: Int, until: Int): SampleRegistry.Located = {
    val found = registry.locate(keys, from, until)
    if (found.size != until - from) {
      val missing = keys.slice(from, until).toSet -- (0 until found.size).map(found.key)
      throw new NoSuchElementException(
        s"${missing.size} unknown sample keys, e.g. ${missing.take(3).mkString(", ")}")
    }
    found
  }

  /** One retrieval task's part `keys(from until until)`: a key-index
    * lookup, then send buffers filled file by file as the iterator is read.
    */
  private def retrievePart(keys: Array[Long], from: Int, until: Int): Iterator[PayloadBatch] =
    new Iterator[PayloadBatch] {
      private val rows = locateAll(keys, from, until)
      private var i    = 0 // next row to copy
      // The samples of the file being copied; payloads(0) belongs to row runStart.
      private var runStart = 0
      private var payloads = Array.empty[Array[Byte]]

      override def hasNext: Boolean = i < rows.size
      override def next(): PayloadBatch = {
        val size      = math.min(sendBufferSize, rows.size - i)
        val keys      = new Array[Long](size)
        val bytes     = new Array[Array[Byte]](size)
        val labels    = new Array[Long](size)
        val positions = new Array[Int](size)
        var fill = 0
        while (fill < size) {
          if (i - runStart == payloads.length) readRun()
          keys(fill) = rows.key(i)
          bytes(fill) = payloads(i - runStart)
          labels(fill) = rows.label(i)
          positions(fill) = rows.position(i)
          fill += 1
          i += 1
        }
        PayloadBatch(keys, bytes, labels, positions)
      }

      /** Rows are sorted by (file, idx): read the run of rows from the file
        * of row i with one getSamples call.
        */
      private def readRun(): Unit = {
        val fileId = rows.fileId(i)
        var j = i
        while (j < rows.size && rows.fileId(j) == fileId) j += 1
        val indices = new Array[Int](j - i)
        var r = 0
        while (r < indices.length) { indices(r) = rows.indexInFile(i + r); r += 1 }
        val fm = registry.fileMeta(fileId)
        runStart = i
        payloads = FileWrapperType.instantiate(fm.wrapperType, fs, fm.path)
          .getSamples(ArraySeq.unsafeWrapArray(indices))
      }
    }
}
