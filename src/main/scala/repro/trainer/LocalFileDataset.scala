package repro.trainer

import repro.storage.{FileMeta, FileSystemWrapper, FileWrapperType}

/** The §5.1.1 comparison baseline: Modyn's training loop with the
  * OnlineDataset replaced by "a custom local dataset reading data directly
  * from binary files". Each dataloader worker is assigned a share of the
  * files and emits *every* sample in them sequentially — no per-key
  * retrieval, no metadata lookup, no sample-level selection. Each file is
  * read through its registered [[repro.storage.FileWrapper]], so Criteo
  * binary files and CLOC single-sample files with `.label` sidecars take
  * the same path. Workers, their buffers and round-robin batch assembly
  * are the [[Loader]] the OnlineDataset uses.
  */
final class LocalFileDataset(fs: FileSystemWrapper, files: Seq[FileMeta],
                             parser: BytesParser, transform: Transform,
                             numWorkers: Int, batchSize: Int) {
  require(numWorkers > 0 && batchSize > 0, "numWorkers and batchSize must be positive")

  /** Iterate every file once as training batches; `close()` stops the
    * workers: close an iterator that is not read to its end.
    */
  def batches(): Iterator[TrainBatch] with AutoCloseable = {
    // Round-robin file assignment gives every worker an equal share.
    val assignment = files.zipWithIndex.groupMap(_._2 % numWorkers)(_._1)
    Loader.batches(numWorkers)(w => worker(assignment.getOrElse(w, Seq.empty)))
  }

  /** The samples of `mine`, in file order, parsed into batches of
    * `batchSize` that may span files.
    */
  private def worker(mine: Seq[FileMeta]): Iterator[TrainBatch] =
    mine.iterator
      .flatMap(f => FileWrapperType.instantiate(f.wrapperType, fs, f.path).extractAll())
      .grouped(batchSize)
      .map { chunk =>
        val n = chunk.size
        TrainBatch(new Array[Long](n),
          chunk.iterator.map(s => transform(parser.parse(s.payload))).toArray,
          chunk.iterator.map(_.label.toInt).toArray, Array.fill(n)(1.0))
      }
}
