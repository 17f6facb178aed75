package repro.trainer

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.{awaitNoTasks, withTmpDir}
import repro.datagen.CriteoLite
import repro.evaluator.{Evaluator, RocAuc}
import repro.selector.{DownsamplingConfig, SelectedSample, TriggerSampleStorage, TriggerTrainingSet}
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

class TrainerServerSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  private def setup(dir: String, n: Int): (SampleRegistry, StorageService, TriggerTrainingSet) = {
    val registry = new SampleRegistry
    val metas    = CriteoLite.generate(fs, registry, s"$dir/data", n, samplesPerFile = 200)
    val storage  = new StorageService(registry, fs, sendBufferSize = 128)
    val tss      = new TriggerSampleStorage(fs, s"$dir/tss")
    val selected = metas.map(m => SelectedSample(m.key, 1.0))
    val parts    = selected.grouped(500).toIndexedSeq
    parts.zipWithIndex.foreach { case (p, i) => tss.writePartition(0, i, p, 2) }
    (registry, storage, TriggerTrainingSet(0, parts.size, selected.size, tss))
  }

  private def runCfg(epochs: Int = 1, batch: Int = 128) = TrainingRunConfig(
    epochs = epochs, batchSize = batch, usePreviousModel = true,
    dataset = OnlineDatasetConfig(2, batch, 1, 1, 1), seed = 5)

  test("training consumes every sample once per epoch") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 1000)
      val parser  = new CriteoBytesParser(64)
      val trainer = new TrainerServer(storage, parser)
      val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1)
      val res = trainer.runTraining(model, tts, runCfg(epochs = 2))
      assert(res.samplesTrainedOn == 2000)
      assert(res.batches >= 2000 / 128)
      assert(res.downsampledTo.isEmpty)
      r.close()
    }
  }

  test("CTR model learns the synthetic ground truth (AUC > 0.6)") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 4000)
      val parser  = new CriteoBytesParser(64)
      val trainer = new TrainerServer(storage, parser)
      val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.5), 1)
      trainer.runTraining(model, tts, runCfg(epochs = 3))
      // Evaluate on held-out keys (fresh generator draws beyond the corpus).
      val eval = (5001L to 6000L).map { k =>
        (parser.parse(CriteoLite.record(k, 42L)), CriteoLite.labelOf(k, 42L).toInt)
      }
      val auc = Evaluator.evaluate(model, eval.iterator,
        decomposable = Seq.empty, holistic = Seq(new RocAuc)).head.value
      assert(auc > 0.6, s"AUC $auc")
      r.close()
    }
  }

  test("StB downsampling trains on the reduced set") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 1000)
      val parser  = new CriteoBytesParser(32)
      val trainer = new TrainerServer(storage, parser)
      val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1)
      val res = trainer.runTraining(model, tts, runCfg(),
        Some(DownsamplingConfig("GradNormCE", 0.5, sampleThenBatch = true)))
      assert(res.downsampledTo.contains(500L))
      assert(res.samplesTrainedOn == 500)
      r.close()
    }
  }

  test("BtS downsampling reduces each batch by the ratio") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 1024)
      val parser  = new CriteoBytesParser(32)
      val trainer = new TrainerServer(storage, parser)
      val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1)
      val res = trainer.runTraining(model, tts, runCfg(batch = 128),
        Some(DownsamplingConfig("Loss", 0.25, sampleThenBatch = false)))
      // Each 128-batch shrinks to 32 draws.
      assert(res.samplesTrainedOn == 1024 / 4)
      assert(res.downsampledTo.isEmpty)
      r.close()
    }
  }

  test("downsampled training still learns (AUC above random)") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 4000)
      val parser  = new CriteoBytesParser(64)
      val trainer = new TrainerServer(storage, parser)
      val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.5), 1)
      trainer.runTraining(model, tts, runCfg(epochs = 3),
        Some(DownsamplingConfig("GradNormCE", 0.5, sampleThenBatch = true)))
      val eval = (5001L to 6000L).map { k =>
        (parser.parse(CriteoLite.record(k, 42L)), CriteoLite.labelOf(k, 42L).toInt)
      }
      val auc = Evaluator.evaluate(model, eval.iterator,
        decomposable = Seq.empty, holistic = Seq(new RocAuc)).head.value
      assert(auc > 0.55, s"AUC $auc")
      r.close()
    }
  }

  test("training is deterministic for a fixed seed and single worker") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 500)
      val parser = new CriteoBytesParser(32)
      def run(): Array[Double] = {
        val trainer = new TrainerServer(storage, parser)
        val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1)
        val cfg = TrainingRunConfig(1, 100, usePreviousModel = true,
          OnlineDatasetConfig(1, 100, 0, 1, 1), seed = 5)
        trainer.runTraining(model, tts, cfg)
        model.weights
      }
      assert(run().toSeq == run().toSeq)
      r.close()
    }
  }

  test("wall clock and mean loss are recorded") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 300)
      val parser  = new CriteoBytesParser(32)
      val trainer = new TrainerServer(storage, parser)
      val model   = new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1)
      val res = trainer.runTraining(model, tts, runCfg())
      assert(res.wallClockMs >= 0)
      assert(res.meanLoss > 0)
      assert(res.triggerId == 0)
      r.close()
    }
  }

  /** Forwards to `inner`, but `trainBatch` throws on call `trainFailAt` and
    * scoring on call `scoreFailAt`.
    */
  private final class FailingModel(inner: Model, trainFailAt: Int = -1, scoreFailAt: Int = -1) extends Model {
    private var trained = 0
    private var scored  = 0
    private def score(): Unit = {
      scored += 1
      if (scored == scoreFailAt) throw new IllegalStateException("scoring failed")
    }
    override def dim: Int = inner.dim
    override def numClasses: Int = inner.numClasses
    override def weights: Array[Double] = inner.weights
    override def setWeights(w: Array[Double]): Unit = inner.setWeights(w)
    override def scores(x: Array[Float]): Array[Double] = { score(); inner.scores(x) }
    override def lossOf(x: Array[Float], y: Int): Double = { score(); inner.lossOf(x, y) }
    override def lastLayerGradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double = {
      score()
      inner.lastLayerGradNorm(x, y, ceOptimized)
    }
    override def trainBatch(xs: Array[Array[Float]], ys: Array[Int], sampleWeights: Array[Double]): Double = {
      trained += 1
      if (trained == trainFailAt) throw new IllegalStateException("training step failed")
      inner.trainBatch(xs, ys, sampleWeights)
    }
  }

  test("a run that fails mid-epoch leaves no data-path task running") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 2000)
      val parser = new CriteoBytesParser(32)
      def failing(trainFailAt: Int = -1, scoreFailAt: Int = -1) =
        new FailingModel(new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1), trainFailAt, scoreFailAt)
      val stb    = Some(DownsamplingConfig("GradNormCE", 0.5, sampleThenBatch = true))
      def perEpoch(downsampling: Option[DownsamplingConfig]) =
        new TrainerServer(storage, parser).runTraining(failing(), tts, runCfg(), downsampling).batches.toInt
      val (plainEpoch, stbEpoch) = (perEpoch(None), perEpoch(stb))
      // With 3 epochs, a failure in epoch e < 2 leaves epoch e + 1's loader
      // open, and one in the last epoch leaves no loader ahead of it.
      val cases  = Seq(
        ("plain", failing(trainFailAt = 3), None, 1),
        ("StB training", failing(trainFailAt = 3), stb, 1),
        ("StB scoring", failing(scoreFailAt = 300), stb, 1),
        ("plain, first of 3 epochs", failing(trainFailAt = 3), None, 3),
        ("plain, second of 3 epochs", failing(trainFailAt = plainEpoch + 3), None, 3),
        ("plain, last of 3 epochs", failing(trainFailAt = 2 * plainEpoch + 3), None, 3),
        ("StB, first of 3 epochs", failing(trainFailAt = 3), stb, 3),
        ("StB, last of 3 epochs", failing(trainFailAt = 2 * stbEpoch + 3), stb, 3))
      for ((name, model, downsampling, epochs) <- cases) {
        intercept[IllegalStateException] {
          new TrainerServer(storage, parser).runTraining(model, tts, runCfg(epochs), downsampling)
        }
        val left = awaitNoTasks("prefetch-", "storage-", "loader-")
        assert(left.isEmpty, s"$name: still running $left")
      }
      r.close()
    }
  }

  /** Forwards to `inner`, and records the rows of every training step and
    * of every scoring call, in call order, and the most loader worker tasks
    * running at any step.
    */
  private final class RecordingModel(inner: Model) extends Model {
    val trained = ArrayBuffer.empty[Seq[Float]]
    val scored  = ArrayBuffer.empty[Seq[Float]]
    var loaderWorkers = 0
    override def dim: Int = inner.dim
    override def numClasses: Int = inner.numClasses
    override def weights: Array[Double] = inner.weights
    override def setWeights(w: Array[Double]): Unit = inner.setWeights(w)
    override def scores(x: Array[Float]): Array[Double] = { scored += x.toSeq; inner.scores(x) }
    override def lossOf(x: Array[Float], y: Int): Double = { scored += x.toSeq; inner.lossOf(x, y) }
    override def lastLayerGradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double = {
      scored += x.toSeq
      inner.lastLayerGradNorm(x, y, ceOptimized)
    }
    override def trainBatch(xs: Array[Array[Float]], ys: Array[Int], sampleWeights: Array[Double]): Double = {
      trained ++= xs.map(_.toSeq)
      val running = Thread.getAllStackTraces.keySet.asScala.count(_.getName.startsWith("loader-worker"))
      loaderWorkers = math.max(loaderWorkers, running)
      inner.trainBatch(xs, ys, sampleWeights)
    }
  }

  /** The epoch loop as `cfg.epochs` single-epoch `OnlineDataset` passes,
    * each read to its end before the next one opens, training `model`.
    * Returns the keys trained on, in order, and the key of every row read.
    */
  private def sequentialRun(model: Model, storage: StorageService, parser: BytesParser,
                            tts: TriggerTrainingSet, cfg: TrainingRunConfig,
                            downsampling: Option[DownsamplingConfig]): (Seq[Long], Map[Seq[Float], Long]) = {
    val keyOf = mutable.Map.empty[Seq[Float], Long]
    def pass(source: TrainingSetSource): Vector[TrainBatch] = {
      val it = new OnlineDataset(source, storage, parser, IdentityTransform, cfg.dataset).batches()
      val batches = try it.toVector finally it.close()
      batches.foreach(b => b.keys.indices.foreach(i => keyOf(b.features(i).toSeq) = b.keys(i)))
      batches
    }
    val source = downsampling match {
      case Some(ds) if ds.sampleThenBatch =>
        val pool = pass(new TssSource(tts)).iterator.flatMap(b => b.keys.indices.map(i => (b.features(i), b.labels(i), b.keys(i))))
        val (keys, weights) =
          DownsamplingDriver.sampleThenBatch(DownsamplingDriver.policyByName(ds.name), model, ds.ratio, pool, cfg.seed)
        new InMemorySource(keys, weights, tts.tss.partitionSize(tts.triggerId, 0).toInt)
      case _ => new TssSource(tts)
    }
    val trainedKeys = ArrayBuffer.empty[Long]
    var step = 0L
    for (epoch <- 0 until cfg.epochs; batch <- pass(source)) {
      downsampling match {
        case Some(ds) if !ds.sampleThenBatch =>
          val draws = DownsamplingDriver.batchThenSample(DownsamplingDriver.policyByName(ds.name), model,
            ds.ratio, batch.features, batch.labels, cfg.seed ^ (epoch.toLong << 32) ^ step)
          trainedKeys ++= draws.map(d => batch.keys(d.index))
          model.trainBatch(draws.map(d => batch.features(d.index)).toArray, draws.map(d => batch.labels(d.index)).toArray,
            draws.map(d => d.weight * batch.weights(d.index)).toArray)
        case _ =>
          trainedKeys ++= batch.keys
          model.trainBatch(batch.features, batch.labels, batch.weights)
      }
      step += 1
    }
    (trainedKeys.toSeq, keyOf.toMap)
  }

  test("a 3-epoch run trains on the key sequence of three back-to-back single-epoch passes") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 2000)
      val parser = new CriteoBytesParser(32)
      val cfg    = runCfg(epochs = 3)
      val cases  = Seq(
        "plain" -> None,
        "StB" -> Some(DownsamplingConfig("GradNormCE", 0.5, sampleThenBatch = true)),
        "BtS" -> Some(DownsamplingConfig("Loss", 0.5, sampleThenBatch = false)))
      for ((name, downsampling) <- cases) {
        val model = new RecordingModel(new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1))
        val res   = new TrainerServer(storage, parser).runTraining(model, tts, cfg, downsampling)
        val left  = awaitNoTasks("prefetch-", "storage-", "loader-")
        assert(left.isEmpty, s"$name: still running $left")
        val ref   = new RecordingModel(new LogisticRegressionModel(parser.dim, SgdConfig(0.1), 1))
        val (keys, keyOf) = sequentialRun(ref, storage, parser, tts, cfg, downsampling)
        assert(keyOf.size == 2000, s"$name: rows do not identify their keys")
        assert(res.samplesTrainedOn == keys.size, name)
        assert(model.trained.map(keyOf) == keys, name)
        assert(model.scored == ref.scored, name)
        assert(java.util.Arrays.equals(model.weights, ref.weights), name)
        // The epoch being read and at most one opened ahead of it.
        assert(model.loaderWorkers <= 2 * cfg.dataset.numWorkers, s"$name: ${model.loaderWorkers} loader workers")
      }
      r.close()
    }
  }

  test("a run has one batch size") {
    intercept[IllegalArgumentException] {
      TrainingRunConfig(1, 64, usePreviousModel = true, OnlineDatasetConfig(1, 32, 1, 1, 1))
    }
  }
}
