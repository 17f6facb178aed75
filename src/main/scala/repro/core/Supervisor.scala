package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.triggers.Trigger
import repro.evaluator.{EvalBlock, EvalResult, Evaluator}
import repro.modelstorage.ModelStorage
import repro.selector.{SelectorContext, StrategyFactory, TriggerSampleStorage}
import repro.storage.{FileSystemWrapper, SampleMeta, SampleRegistry, StorageService}
import repro.trainer._

/** A named evaluation set (e.g. one per CLOC year): the sample keys to
  * evaluate each trained model on.
  */
final case class EvalSet(name: String, keys: Array[Long])

/** Everything recorded about one trigger's training run. `evalMs` is the
  * wall time of the trigger's evaluation, including any retrieval of eval
  * data it did; `selectMs` that of its selection, including the write of
  * the trigger training set to the TSS.
  */
final case class TriggerReport(triggerId: Int, training: TrainingResult,
                               storedModelBytes: Long,
                               evals: Map[String, Seq[EvalResult]],
                               evalMs: Long = 0L, selectMs: Long = 0L)

/** The pipeline execution's output: one report per trigger, in order.
  * `accuracyMatrix` renders the Fig. 9/10 protocol — each trained model
  * evaluated on each eval set.
  */
final case class PipelineReport(pipelineName: String, triggers: Seq[TriggerReport]) {
  /** (trigger id, eval set name) -> accuracy. */
  def accuracyMatrix: Map[(Int, String), Double] =
    (for {
      t            <- triggers
      (set, evals) <- t.evals
      acc          <- evals.find(_.metric == "Accuracy")
    } yield (t.triggerId, set) -> acc.value).toMap
}

/** The supervisor server (§4.1.1): orchestrates one pipeline end-to-end in
  * *experiment mode* — existing data is replayed in timestamp order as if
  * it were streaming in (the storage "announces existing data points as
  * new"), the triggering policy is evaluated on every incoming batch,
  * and each trigger runs selection → training → model storage →
  * evaluation (§3.4's data flow, steps 1–7).
  *
  * The eval sets are retrieved and parsed once per run, at the first
  * evaluation, into one [[EvalBlock]] held under `evalBudgetBytes` (by
  * default 1/8 of the JVM's max heap); a set that does not fit is streamed
  * from storage on every evaluation instead.
  */
final class Supervisor private[core] (pipeline: PipelineConfig, registry: SampleRegistry,
                                      storage: StorageService, fs: FileSystemWrapper,
                                      workDir: String, spark: Option[SparkSession],
                                      transform: Transform, evalBudgetBytes: Long) {

  def this(pipeline: PipelineConfig, registry: SampleRegistry,
           storage: StorageService, fs: FileSystemWrapper, workDir: String,
           spark: Option[SparkSession] = None,
           transform: Transform = IdentityTransform) =
    this(pipeline, registry, storage, fs, workDir, spark, transform,
      Runtime.getRuntime.maxMemory / 8)

  /** Replay all registered data and return the per-trigger reports.
    *
    * @param replayBatchSize how many samples the storage announces per
    *                        batch S_t
    * @param evalSets        evaluation sets; each trained model is
    *                        evaluated on every set (the accuracy matrix)
    * @param trailingTrigger fire one final trigger for leftover samples
    *                        after the replay ends, as Modyn's experiment
    *                        mode does for a trailing partial period
    */
  def runExperiment(replayBatchSize: Int = 1000,
                    evalSets: Seq[EvalSet] = Seq.empty,
                    trailingTrigger: Boolean = false): PipelineReport = {
    require(replayBatchSize > 0, "replayBatchSize must be positive")

    val tss = new TriggerSampleStorage(fs, s"$workDir/tss")
    val ctx = SelectorContext(
      backend = StrategyFactory.backend(
        pipeline.selectionConfig.getOrElse("storage_backend", "local"),
        fs, s"$workDir/selector", spark),
      tss = tss,
      partitionSize = pipeline.partitionSize,
      seed = pipeline.seed)
    val strategy = StrategyFactory.strategy(
      pipeline.selectionName, pipeline.selectionConfig, pipeline.downsampling, ctx)
    val triggerPolicy = Trigger.byName(pipeline.triggerId, pipeline.triggerConfig)
    val parser        = ModelFactory.bytesParser(pipeline.bytesParser, pipeline.modelConfig)
    val trainer       = new TrainerServer(storage, parser, transform)
    val modelStore    = new ModelStorage(fs, s"$workDir/models", pipeline.fullModelInterval)
    val model         = ModelFactory.model(
      pipeline.modelId, pipeline.modelConfig, pipeline.sgd, pipeline.seed)

    val reports = Seq.newBuilder[TriggerReport]
    var trained = 0 // number of completed triggers

    def decomposable() = pipeline.evalMetrics.filter(m => m == "Accuracy" || m == "F1Macro")
      .map(Evaluator.decomposableByName)
    def holistic() = pipeline.evalMetrics.filter(_ == "RocAuc").map(Evaluator.holisticByName)

    // Which eval sets go into the block: in order, each that still fits.
    var budget  = evalBudgetBytes
    val inBlock = evalSets.map { set =>
      val need = set.keys.length * Supervisor.evalRowBytes(parser.dim)
      if (need <= budget) { budget -= need; true } else false
    }
    val blockSets = evalSets.zip(inBlock).collect { case (set, true) => set }
    lazy val block = evalBlock(blockSets, parser)

    /** Every eval set's results for the model: the sets in the block from
      * one scoring pass over it, after checking that none of their keys
      * was deleted since the block was filled; the others streamed.
      */
    def evaluate(): Map[String, Seq[EvalResult]] = {
      val fromBlock = if (blockSets.isEmpty) Iterator.empty else {
        blockSets.foreach(set => storage.requireKeys(set.keys))
        Evaluator.evaluateBlock(model, block, decomposable(), holistic()).iterator
      }
      evalSets.zip(inBlock).map { case (set, cached) =>
        set.name -> (if (cached) fromBlock.next()
          else Evaluator.evaluate(model, evalFeatures(set, parser), decomposable(), holistic()))
      }.toMap
    }

    def fireTrigger(): Unit = {
      val triggerId   = strategy.nextTriggerId
      val selectStart = System.nanoTime()
      val tts         = strategy.onTrigger()
      val selectMs    = (System.nanoTime() - selectStart) / 1000000L
      if (tts.totalSamples == 0) return // nothing selected; skip the run

      if (pipeline.usePreviousModel) {
        // Model storage keeps raw IEEE bits, so the weights in memory are
        // exactly what loading model `trained - 1` back would return;
        // setting them again only resets the optimizer state.
        if (trained > 0) model.setWeights(model.weights)
        // else: very first training starts from the random initialization.
      } else {
        // Train from scratch: re-initialize with a per-trigger seed.
        model.setWeights(ModelFactory.model(pipeline.modelId, pipeline.modelConfig,
          pipeline.sgd, pipeline.seed + 1000L * (triggerId + 1)).weights)
      }

      val runCfg = TrainingRunConfig(
        epochs = pipeline.epochs,
        batchSize = pipeline.batchSize,
        usePreviousModel = pipeline.usePreviousModel,
        dataset = pipeline.dataloader,
        seed = pipeline.seed ^ triggerId.toLong)
      val result = trainer.runTraining(model, tts, runCfg, strategy.downsampling)

      val bytes     = modelStore.store(trained, model.weights)
      val evalStart = System.nanoTime()
      val evals     = evaluate()
      reports += TriggerReport(triggerId, result, bytes, evals,
        (System.nanoTime() - evalStart) / 1000000L, selectMs)
      trained += 1
    }

    val replay = registry.samplesByTime()
    (0 until replay.size by replayBatchSize).foreach { start =>
      val batch = replay.slice(start, math.min(replay.size, start + replayBatchSize))
      // §3.1: the trigger training set includes samples up to and
      // *including* the trigger-causing sample.
      var consumed = 0
      triggerPolicy.inform(batch).foreach { idx =>
        strategy.inform(batch.slice(consumed, idx + 1))
        consumed = idx + 1
        fireTrigger()
      }
      if (consumed < batch.size) strategy.inform(batch.slice(consumed, batch.size))
    }
    if (trailingTrigger) fireTrigger()

    ctx.backend.close()
    PipelineReport(pipeline.pipelineName, reports.result())
  }

  /** Retrieve and parse `sets` into one row block, in set order. */
  private def evalBlock(sets: Seq[EvalSet], parser: BytesParser): EvalBlock = {
    val rows    = Array.newBuilder[Array[Float]]
    val labels  = Array.newBuilder[Int]
    val offsets = Array.newBuilder[Int] += 0
    var n = 0
    sets.foreach { set =>
      evalFeatures(set, parser).foreach { case (x, y) => rows += x; labels += y; n += 1 }
      offsets += n
    }
    new EvalBlock(rows.result(), labels.result(), offsets.result())
  }

  /** Stream an eval set's (features, label) pairs through storage+parser. */
  private def evalFeatures(set: EvalSet, parser: BytesParser): Iterator[(Array[Float], Int)] =
    storage.retrieve(set.keys, nThreads = 4).flatMap { chunk =>
      (0 until chunk.size).iterator.map { i =>
        (parser.parse(chunk.payloads(i)), chunk.labels(i).toInt)
      }
    }
}

object Supervisor {
  /** Heap bytes one parsed eval row of `dim` features takes in the eval
    * block: its float array, the reference to it, and its label.
    */
  private[core] def evalRowBytes(dim: Int): Long = 16L + 4L * dim + 8 + 4

  /** Convenience for tests/jobs: per-year CLOC eval sets from metadata. */
  def yearlyEvalSets(metas: Seq[SampleMeta]): Seq[EvalSet] =
    metas.groupBy(m => repro.datagen.ClocLite.yearOfTimestamp(m.timestampSec))
      .toSeq.sortBy(_._1)
      .map { case (year, ms) => EvalSet(year.toString, ms.map(_.key).toArray) }
}
