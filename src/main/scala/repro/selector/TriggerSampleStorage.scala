package repro.selector

import repro.storage.FileSystemWrapper
import repro.util.Parallel
import scala.collection.immutable.ArraySeq

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
  * (Int64 key, Float64 weight) records, through the same fixed-record
  * writer as the local metadata backend. The selector writes one file per
  * partition.
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

  /** Persist `keys(from until until)` with their `weights` as partition
    * `partitionId` of trigger `triggerId`, using `numThreads` parallel
    * writer threads, each writing a contiguous chunk to its own file.
    * Writer `t` writes `part_P_wT`; readers rely on these names being
    * contiguous from `w0`, so a failed writer fails the whole call, and a
    * leftover file just past the last writer is removed.
    */
  def writePartition(triggerId: Int, partitionId: Int, keys: Array[Long], weights: Array[Double],
                     from: Int, until: Int, numThreads: Int): Unit = {
    require(numThreads > 0, "numThreads must be positive")
    require(until > from, "cannot persist an empty partition")
    val per     = (until - from + numThreads - 1) / numThreads
    val writers = (until - from + per - 1) / per
    Parallel.runAll("tss-writer", (0 until writers).map { tid => () =>
      val lo = from + tid * per
      fs.write(fileName(triggerId, partitionId, tid), FixedRecords.encode(math.min(per, until - lo),
        RecordBytes) { (buf, r) => buf.putLong(keys(lo + r)).putDouble(weights(lo + r)) })
    })
    fs.delete(fileName(triggerId, partitionId, writers))
  }

  /** Row form of the columnar [[writePartition]]. */
  def writePartition(triggerId: Int, partitionId: Int,
                     samples: IndexedSeq[SelectedSample], numThreads: Int): Unit =
    writePartition(triggerId, partitionId, samples.map(_.key).toArray, samples.map(_.weight).toArray,
      0, samples.length, numThreads)

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

  /** Worker `workerId` of `numWorkers`'s share of a partition as (keys,
    * weights): the contiguous record range `[workerId*total/numWorkers,
    * (workerId+1)*total/numWorkers)` over the concatenation of the writer
    * files, assembled with ranged reads of only the needed subparts.
    */
  def workerShare(triggerId: Int, partitionId: Int,
                  workerId: Int, numWorkers: Int): (Array[Long], Array[Double]) = {
    require(numWorkers > 0 && workerId >= 0 && workerId < numWorkers,
      s"workerId $workerId out of [0, $numWorkers)")
    val files = partitionFiles(triggerId, partitionId)
    val total = files.map(_._2).sum
    readRange(files, workerId * total / numWorkers, (workerId + 1) * total / numWorkers)
  }

  /** Row form of [[workerShare]]. */
  def readWorkerShare(triggerId: Int, partitionId: Int,
                      workerId: Int, numWorkers: Int): IndexedSeq[SelectedSample] =
    rows(workerShare(triggerId, partitionId, workerId, numWorkers))

  /** Every record of the partition, in writer order. */
  def readPartition(triggerId: Int, partitionId: Int): IndexedSeq[SelectedSample] = {
    val files = partitionFiles(triggerId, partitionId)
    rows(readRange(files, 0L, files.map(_._2).sum))
  }

  /** Every record of the whole trigger training set, partition order. */
  def readTrigger(triggerId: Int): IndexedSeq[SelectedSample] =
    (0 until numPartitions(triggerId)).flatMap(readPartition(triggerId, _))

  private def rows(share: (Array[Long], Array[Double])): IndexedSeq[SelectedSample] =
    ArraySeq.unsafeWrapArray(share._1.zip(share._2).map(SelectedSample.tupled))

  private def readRange(files: IndexedSeq[(String, Long)],
                        start: Long, end: Long): (Array[Long], Array[Double]) = {
    val keys    = new Array[Long]((end - start).toInt)
    val weights = new Array[Double](keys.length)
    var fileStart = 0L
    files.foreach { case (path, n) =>
      val fileEnd = fileStart + n
      val lo = math.max(start, fileStart)
      val hi = math.min(end, fileEnd)
      if (lo < hi) {
        val at = (lo - start).toInt
        FixedRecords.decode(fs.read(path, (lo - fileStart) * RecordBytes, ((hi - lo) * RecordBytes).toInt),
          RecordBytes) { (buf, r) => keys(at + r) = buf.getLong(); weights(at + r) = buf.getDouble() }
      }
      fileStart = fileEnd
    }
    (keys, weights)
  }
}

/** Handle to a persisted trigger training set: where it lives and how it is
  * partitioned. This is what the selector returns to the supervisor/trainer
  * on trigger (§3.4 step 4).
  */
final case class TriggerTrainingSet(triggerId: Int, numPartitions: Int,
                                    totalSamples: Long, tss: TriggerSampleStorage)
