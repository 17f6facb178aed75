package repro.selector

import java.nio.{ByteBuffer, ByteOrder}
import repro.storage.FileSystemWrapper
import repro.util.Parallel

/** A selected sample: its storage key and its training weight (the weight
  * multiplies the sample's gradient during backpropagation, §3.1).
  */
final case class SelectedSample(key: Long, weight: Double)

/** The TriggerSampleStorage (TSS, §4.2.2): fast binary persistence of the
  * trigger training set.
  *
  * The selection strategy hands the TSS the trigger training set one
  * fixed-size partition at a time (bounding memory, and providing the unit
  * of transfer to the trainer). Each partition is written by `numThreads`
  * parallel writers, producing `numThreads` files of 16-byte little-endian
  * (Int64 key, Float64 weight) records — the same binary format as the
  * local metadata backend.
  *
  * On the read side, a dataloader worker asks for *its* share of a
  * partition. The worker count generally differs from the writer-thread
  * count, so the reader computes the worker's contiguous record range over
  * the whole partition and reassembles it from subparts of the underlying
  * files — exactly the subpart-parsing the paper hides in its C++
  * extension.
  */
final class TriggerSampleStorage(fs: FileSystemWrapper, baseDir: String) {
  val RecordBytes = 16

  private def partDir(triggerId: Int): String = f"$baseDir/trigger_$triggerId%06d"
  private def fileName(triggerId: Int, partitionId: Int, threadId: Int): String =
    f"${partDir(triggerId)}/part_${partitionId}%06d_w$threadId%05d.tss"

  /** Persist one partition of trigger `triggerId` using `numThreads`
    * parallel writer threads, each writing a contiguous chunk to its own
    * file. Writer `t` writes `part_P_wT`; readers rely on these names being
    * contiguous from `w0`, so a failed writer fails the whole call, and a
    * leftover file just past the last writer is removed.
    */
  def writePartition(triggerId: Int, partitionId: Int,
                     samples: IndexedSeq[SelectedSample], numThreads: Int): Unit = {
    require(numThreads > 0, "numThreads must be positive")
    require(samples.nonEmpty, "cannot persist an empty partition")
    val per    = (samples.length + numThreads - 1) / numThreads
    val chunks = samples.grouped(per).toIndexedSeq
    Parallel.runAll("tss-writer", chunks.zipWithIndex.map { case (chunk, tid) => () =>
      val bytes = new Array[Byte](chunk.length * RecordBytes)
      val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
      chunk.foreach { s => bb.putLong(s.key); bb.putDouble(s.weight) }
      fs.write(fileName(triggerId, partitionId, tid), bytes)
    })
    fs.delete(fileName(triggerId, partitionId, chunks.length))
  }

  /** Files comprising (triggerId, partitionId) with their record counts, in
    * writer-thread order: `w0, w1, ...` up to the first missing name. No
    * directory listing, so a share read costs O(writer files), not
    * O(partitions of the trigger).
    */
  private def partitionFiles(triggerId: Int, partitionId: Int): IndexedSeq[(String, Long)] =
    Iterator.from(0).map(fileName(triggerId, partitionId, _)).takeWhile(fs.exists)
      .map(path => (path, fs.size(path) / RecordBytes)).toIndexedSeq

  /** Number of partitions persisted for `triggerId`: partitions are numbered
    * from 0 without gaps, and each has a `w0` file.
    */
  def numPartitions(triggerId: Int): Int =
    Iterator.from(0).takeWhile(p => fs.exists(fileName(triggerId, p, 0))).size

  /** Total records in (triggerId, partitionId). */
  def partitionSize(triggerId: Int, partitionId: Int): Long =
    partitionFiles(triggerId, partitionId).map(_._2).sum

  /** Worker `workerId` of `numWorkers`'s share of a partition: the
    * contiguous record range `[workerId*total/numWorkers,
    * (workerId+1)*total/numWorkers)` over the concatenation of the writer
    * files, assembled with ranged reads of only the needed subparts.
    */
  def readWorkerShare(triggerId: Int, partitionId: Int,
                      workerId: Int, numWorkers: Int): IndexedSeq[SelectedSample] = {
    require(numWorkers > 0 && workerId >= 0 && workerId < numWorkers,
      s"workerId $workerId out of [0, $numWorkers)")
    val files = partitionFiles(triggerId, partitionId)
    val total = files.map(_._2).sum
    readRange(files, workerId * total / numWorkers, (workerId + 1) * total / numWorkers)
  }

  /** Every record of the partition, in writer order. */
  def readPartition(triggerId: Int, partitionId: Int): IndexedSeq[SelectedSample] = {
    val files = partitionFiles(triggerId, partitionId)
    readRange(files, 0L, files.map(_._2).sum)
  }

  /** Every record of the whole trigger training set, partition order. */
  def readTrigger(triggerId: Int): IndexedSeq[SelectedSample] =
    (0 until numPartitions(triggerId)).flatMap(readPartition(triggerId, _))

  private def readRange(files: IndexedSeq[(String, Long)],
                        start: Long, end: Long): IndexedSeq[SelectedSample] = {
    val out = IndexedSeq.newBuilder[SelectedSample]
    var fileStart = 0L
    files.foreach { case (path, n) =>
      val fileEnd = fileStart + n
      val lo = math.max(start, fileStart)
      val hi = math.min(end, fileEnd)
      if (lo < hi) {
        val bytes = fs.read(path, (lo - fileStart) * RecordBytes, ((hi - lo) * RecordBytes).toInt)
        val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
        var i = 0L
        while (i < hi - lo) { out += SelectedSample(bb.getLong(), bb.getDouble()); i += 1 }
      }
      fileStart = fileEnd
    }
    out.result()
  }
}

/** Handle to a persisted trigger training set: where it lives and how it is
  * partitioned. This is what the selector returns to the supervisor/trainer
  * on trigger (§3.4 step 4).
  */
final case class TriggerTrainingSet(triggerId: Int, numPartitions: Int,
                                    totalSamples: Long, tss: TriggerSampleStorage)
