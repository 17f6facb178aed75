package perfbench

import repro.selector.{SelectedSample, TriggerSampleStorage, TriggerTrainingSet}
import repro.storage.{FileSystemWrapper, SampleRegistry, StorageService}
import repro.trainer._

/** One pass over a trigger training set: samples trained, wall time, the
  * part of it the training loop spent blocked in `batches()`, and the output
  * check's verdict.
  */
final case class EpochStats(samples: Long, ns: Long, waitNs: Long, problem: Option[String]) {
  def samplesPerS: Double = samples * 1e9 / ns
}

/** A persisted trigger training set and the storage to read it from:
  * what the trainer's OnlineDataset consumes.
  */
final class TrainingSet(val registry: SampleRegistry, val fs: FileSystemWrapper, val tssDir: String,
                        val numPartitions: Int, val numSamples: Long, val sendBufferSize: Int) {
  /** The same training set seen through `fs` (e.g. a traced view). */
  def tts(fs: FileSystemWrapper): TriggerTrainingSet =
    TriggerTrainingSet(0, numPartitions, numSamples, new TriggerSampleStorage(fs, tssDir))
  def storage(fs: FileSystemWrapper): StorageService = new StorageService(registry, fs, sendBufferSize)
}

object DataPath {

  /** Persist keys 1..n, with their benchmark weights, as trigger 0 in
    * partitions of `partitionSize`, four writer threads per partition.
    */
  def persist(registry: SampleRegistry, fs: FileSystemWrapper, tssDir: String, n: Int,
              partitionSize: Int, seed: Long, sendBufferSize: Int): TrainingSet = {
    val tss = new TriggerSampleStorage(fs, tssDir)
    val parts = (1L to n.toLong).map(k => SelectedSample(k, Expected.tssWeight(k, seed))).grouped(partitionSize).toIndexedSeq
    parts.zipWithIndex.foreach { case (p, i) => tss.writePartition(0, i, p, 4) }
    new TrainingSet(registry, fs, tssDir, parts.size, n.toLong, sendBufferSize)
  }

  /** Train `model` on one epoch of `source`, then check every batch. */
  def epoch(source: TrainingSetSource, storage: StorageService, parser: BytesParser, model: Model,
            cfg: OnlineDatasetConfig, exp: Expected, tracer: Option[Tracer] = None): EpochStats = {
    val check = new EpochCheck(exp)
    var samples = 0L
    var waitNs = 0L
    val start = System.nanoTime()
    val run = () => {
      val it = new OnlineDataset(source, storage, parser, IdentityTransform, cfg).batches()
      waitNs += System.nanoTime() - start
      var more = true
      while (more) {
        val w0 = System.nanoTime()
        more = it.hasNext
        val b = if (more) it.next() else null
        val w = System.nanoTime() - w0
        waitNs += w
        if (more) {
          tracer.foreach(_.observe("batch.wait", w))
          model.trainBatch(b.features, b.labels, b.weights)
          samples += b.size
          check.record(b)
        }
      }
    }
    tracer match {
      case Some(t) => t.span("epoch", shared = true)(run())
      case None    => run()
    }
    val ns = System.nanoTime() - start
    EpochStats(samples, ns, waitNs, check.problem)
  }

  /** Run `epochs` checked epochs, each one counted as an operation. */
  def epochs(n: Int, tally: Tally, body: => EpochStats): Seq[EpochStats] =
    (1 to n).flatMap(_ => tally.op("epoch") { val s = body; (s, s.problem) })

  /** Per-layer numbers of the data path, from a set of traced epochs and
    * the untraced epochs run just before them in the same process.
    */
  def layerMetrics(t: Tracer, traced: Seq[EpochStats], untraced: Seq[EpochStats],
                   jvm: JvmCounters): Map[String, Double] = {
    val samples = traced.map(_.samples).sum.toDouble
    val shares = t.spans("tss.workerShare")
    val waits = t.observations("batch.wait").sorted
    def pct(p: Double): Double = waits(math.min(waits.size - 1, (p * waits.size).toInt)) / 1e6
    def perCall(name: String): Double = t.counter(s"$name.ns").toDouble / t.counter(s"$name.calls")
    val untracedSamples = untraced.map(_.samples).sum.toDouble
    Map(
      "storage.fs_reads_per_sample" -> t.counter("data.read.calls") / samples,
      "storage.fs_read_bytes_per_sample" -> t.counter("data.read.bytes") / samples,
      "selector.tss_share_read_ms" -> shares.map(_.durNs).sum / 1e6 / shares.size,
      "selector.tss_list_calls_per_share" -> t.counter("tss.list.calls").toDouble / shares.size,
      "selector.tss_list_ms_per_epoch" -> t.counter("tss.list.ns") / 1e6 / traced.size,
      "trainer.consumer_wait_share" -> untraced.map(_.waitNs).sum.toDouble / untraced.map(_.ns).sum,
      "trainer.step_ns_per_sample" -> t.counter("model.trainBatch.ns") / t.counter("model.trainBatch.samples").toDouble,
      "trainer.parse_ns_per_sample" -> perCall("parse"),
      "trainer.batch_wait_ms_p50" -> pct(0.50),
      "trainer.batch_wait_ms_p99" -> pct(0.99),
      "trace.epoch_overhead_share" ->
        (Stats.median(untraced.map(_.samplesPerS)) / Stats.median(traced.map(_.samplesPerS)) - 1.0),
      "jvm.gc_pause_ms" -> jvm.gcPauseMs.toDouble,
      "jvm.alloc_bytes_per_sample" -> jvm.allocBytes / untracedSamples,
      "jvm.threads_started_per_epoch" -> jvm.threadsStarted.toDouble / untraced.size)
  }

  /** Call the storage layer directly with the key sets one epoch requests
    * (one call per worker share, as with one retrieval thread): the metadata
    * lookup alone, then the whole retrieval.
    */
  def storageProbe(set: TrainingSet, cfg: OnlineDatasetConfig): Map[String, Double] = {
    val source = new TssSource(set.tts(set.fs))
    val shares = for (p <- 0 until set.numPartitions; w <- 0 until cfg.numWorkers)
      yield source.workerShare(p, w, cfg.numWorkers)._1
    val keys = shares.map(_.length).sum.toDouble
    val lookupNs = shares.map { ks =>
      val conn = set.registry.duplicateConnection()
      try Stats.timeNs(set.registry.lookup(conn, ks))._2 finally conn.close()
    }
    val storage = set.storage(set.fs)
    val retrievals = shares.map { ks =>
      val start = System.nanoTime()
      val it = storage.retrieve(ks, cfg.storageThreads)
      it.hasNext
      val first = System.nanoTime() - start
      it.foreach(_ => ())
      (first, System.nanoTime() - start)
    }
    Map(
      "storage.lookup_ms_per_call" -> lookupNs.sum / 1e6 / shares.size,
      "storage.lookup_ns_per_key" -> lookupNs.sum / keys,
      "storage.lookup_ms_per_epoch" -> lookupNs.sum / 1e6,
      "storage.retrieve_keys_per_s" -> keys * 1e9 / retrievals.map(_._2).sum,
      "storage.retrieve_first_batch_ms" -> retrievals.map(_._1).sum / 1e6 / shares.size)
  }
}

object Stats {
  def timeNs[T](body: => T): (T, Long) = {
    val start = System.nanoTime()
    val v = body
    (v, System.nanoTime() - start)
  }

  /** Median, or NaN for no values (a run whose every operation failed). */
  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
