package repro.bench

import repro.datagen.{ClocLite, CriteoLite}
import repro.selector.{SelectedSample, TriggerSampleStorage, TriggerTrainingSet}
import repro.storage.{LocalFileSystemWrapper, SampleMeta, SampleRegistry, StorageService}
import repro.trainer._

/** A generated corpus wired into the storage stack, plus trigger training
  * sets at the partition sizes under study.
  */
final class Corpus(val registry: SampleRegistry, val storage: StorageService,
                   val metas: IndexedSeq[SampleMeta], val tss: TriggerSampleStorage,
                   val triggerByPartitionSize: Map[Int, TriggerTrainingSet]) {
  def close(): Unit = registry.close()
}

/** One throughput measurement row. */
final case class ThroughputResult(samples: Long, wallMs: Long) {
  /** Thousand samples per second — the unit of Fig. 7/8. */
  def kOpsPerSec: Double = if (wallMs == 0) 0.0 else samples.toDouble / wallMs
}

/** Shared machinery for the throughput benchmarks (T1–T3): corpus
  * construction, the Modyn data path (selector TSS → storage →
  * OnlineDataset → training consumer), and the §5.1.1 local baseline
  * (sequential file reads, no sample-level selection). Both run on the
  * same dataloader ([[repro.trainer.LocalFileDataset]] shares the
  * OnlineDataset's workers, buffers and batch assembly), and both are timed
  * alike: the clock starts before `batches()` starts the worker threads
  * and stops after the last model update.
  */
object Harness {
  val fs = new LocalFileSystemWrapper

  /** Build a Criteo-lite corpus and persist one full trigger training set
    * per requested TSS partition size (trigger id = index in
    * `partitionSizes`).
    */
  def criteoCorpus(dir: String, numSamples: Int, samplesPerFile: Int,
                   partitionSizes: Seq[Int], seed: Long = 42): Corpus = {
    val registry = new SampleRegistry
    val metas    = CriteoLite.generate(fs, registry, s"$dir/data", numSamples,
      samplesPerFile, seed)
    val storage  = new StorageService(registry, fs, sendBufferSize = 2048)
    val tss      = new TriggerSampleStorage(fs, s"$dir/tss")
    val selected = metas.map(m => SelectedSample(m.key, 1.0))
    val triggers = partitionSizes.zipWithIndex.map { case (ps, t) =>
      val parts = selected.grouped(ps).toIndexedSeq
      parts.zipWithIndex.foreach { case (p, i) => tss.writePartition(t, i, p, 4) }
      ps -> TriggerTrainingSet(t, parts.size, selected.size, tss)
    }.toMap
    new Corpus(registry, storage, metas, tss, triggers)
  }

  /** Build a CLOC-lite corpus (one sample per file + sidecar label). */
  def clocCorpus(dir: String, samplesPerYear: Int, numClasses: Int,
                 featureDim: Int, partitionSize: Int,
                 years: Range = ClocLite.Years, seed: Long = 7): Corpus = {
    val registry = new SampleRegistry
    val metas    = ClocLite.generate(fs, registry, s"$dir/data", samplesPerYear,
      numClasses, featureDim, seed, years)
    val storage  = new StorageService(registry, fs, sendBufferSize = 512)
    val tss      = new TriggerSampleStorage(fs, s"$dir/tss")
    val selected = metas.map(m => SelectedSample(m.key, 1.0))
    val parts    = selected.grouped(partitionSize).toIndexedSeq
    parts.zipWithIndex.foreach { case (p, i) => tss.writePartition(0, i, p, 4) }
    new Corpus(registry, storage, metas, tss,
      Map(partitionSize -> TriggerTrainingSet(0, parts.size, selected.size, tss)))
  }

  /** End-to-end Modyn throughput: stream the trigger training set through
    * the OnlineDataset with the given tuning and feed every batch to the
    * model's training step (the consumer), like §5.1's measurement "from
    * the start of the training loop to the last model update".
    */
  def modynThroughput(corpus: Corpus, partitionSize: Int, cfg: OnlineDatasetConfig,
                      parser: BytesParser, transform: Transform,
                      model: Model): ThroughputResult = {
    val tts = corpus.triggerByPartitionSize(partitionSize)
    val ds  = new OnlineDataset(new TssSource(tts), corpus.storage, parser, transform, cfg)
    train(ds.batches, model)
  }

  /** The §5.1.1 baseline: same training loop and dataloader, but a local
    * dataset reading every registered file sequentially — no selector, no
    * per-key retrieval. Serves Criteo binary files and CLOC single-sample
    * files alike.
    */
  def localThroughput(corpus: Corpus, numWorkers: Int, batchSize: Int,
                      parser: BytesParser, transform: Transform,
                      model: Model): ThroughputResult = {
    val ds = new LocalFileDataset(fs, corpus.registry.files, parser, transform,
      numWorkers, batchSize)
    train(ds.batches, model)
  }

  /** Time feeding every batch of `batches()` to the model's training step. */
  private def train(batches: () => Iterator[TrainBatch] with AutoCloseable, model: Model): ThroughputResult = {
    var n = 0L
    val start = System.nanoTime()
    val it = batches()
    try it.foreach { b =>
      model.trainBatch(b.features, b.labels, b.weights)
      n += b.size
    } finally it.close()
    ThroughputResult(n, (System.nanoTime() - start) / 1000000L)
  }

  /** Fresh DLRM-lite (CTR) model for Criteo-shaped benches. */
  def criteoModel(hashDim: Int = 128): LogisticRegressionModel =
    new LogisticRegressionModel(CriteoLite.NumNumeric + hashDim,
      SgdConfig(lr = 0.1), seed = 1)

  /** Fresh ResNet-lite (softmax) model for CLOC-shaped benches. */
  def clocModel(featureDim: Int, numClasses: Int): SoftmaxRegressionModel =
    new SoftmaxRegressionModel(featureDim, numClasses,
      SgdConfig(lr = 0.025, momentum = 0.9, weightDecay = 1e-4), seed = 1)
}
