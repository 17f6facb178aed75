package perfbench

import repro.core.{EvalSet, PipelineConfig, PipelineReport, TriggerReport}
import repro.core.triggers.Trigger
import repro.evaluator.Evaluator
import repro.modelstorage.ModelStorage
import repro.selector.{NewSample, SelectorContext, StrategyFactory, TriggerSampleStorage}
import repro.storage.{FileSystemWrapper, SampleRegistry, StorageService}
import repro.trainer.{IdentityTransform, ModelFactory, TrainerServer, TrainingRunConfig}

/** A traced replay of one pipeline: the same layer calls, in the same
  * order and with the same arguments, as `Supervisor.runExperiment` and its
  * `fireTrigger`, each wrapped in a span. The supervisor hands one file
  * system to the selector and to model storage; here each gets its own
  * traced view of it, so that their I/O is counted apart.
  */
final class PipelineDriver(pipeline: PipelineConfig, registry: SampleRegistry,
                           storage: StorageService, selectorFs: FileSystemWrapper,
                           modelFs: FileSystemWrapper, workDir: String, t: Tracer) {

  def run(replayBatchSize: Int, evalSets: Seq[EvalSet], trailingTrigger: Boolean): PipelineReport =
    t.span("pipeline", pipeline.pipelineName, shared = true) {
      val tss = new TriggerSampleStorage(selectorFs, s"$workDir/tss")
      val ctx = SelectorContext(
        backend = StrategyFactory.backend(
          pipeline.selectionConfig.getOrElse("storage_backend", "local"), selectorFs,
          s"$workDir/selector", None),
        tss = tss, partitionSize = pipeline.partitionSize, seed = pipeline.seed, spark = None)
      val strategy = StrategyFactory.strategy(
        pipeline.selectionName, pipeline.selectionConfig, pipeline.downsampling, ctx)
      val triggerPolicy = Trigger.byName(pipeline.triggerId, pipeline.triggerConfig)
      val parser = new TracedParser(ModelFactory.bytesParser(pipeline.bytesParser, pipeline.modelConfig), t)
      val trainer = new TrainerServer(storage, parser, IdentityTransform)
      val modelStore = new ModelStorage(modelFs, s"$workDir/models", pipeline.fullModelInterval)
      val model = new TracedModel(
        ModelFactory.model(pipeline.modelId, pipeline.modelConfig, pipeline.sgd, pipeline.seed), t)
      val reports = Seq.newBuilder[TriggerReport]
      var trained = 0

      def fireTrigger(): Unit = {
        val triggerId = strategy.nextTriggerId
        val tts = t.span("selector.onTrigger")(strategy.onTrigger())
        if (tts.totalSamples == 0) return
        t.add("selector.selected", tts.totalSamples)
        if (pipeline.usePreviousModel) {
          if (trained > 0) model.setWeights(t.span("modelstorage.load")(modelStore.load(trained - 1)))
        } else {
          model.setWeights(ModelFactory.model(pipeline.modelId, pipeline.modelConfig,
            pipeline.sgd, pipeline.seed + 1000L * (triggerId + 1)).weights)
        }
        val runCfg = TrainingRunConfig(
          epochs = pipeline.epochs, batchSize = pipeline.batchSize,
          usePreviousModel = pipeline.usePreviousModel, dataset = pipeline.dataloader,
          seed = pipeline.seed ^ triggerId.toLong)
        val result = t.span("trainer.runTraining")(
          trainer.runTraining(model, tts, runCfg, strategy.downsampling))
        val bytes = t.span("modelstorage.store")(modelStore.store(trained, model.weights))
        t.add("modelstorage.bytes", bytes)
        val evals = t.span("evaluator.trigger") {
          evalSets.map { set =>
            set.name -> t.span("evaluator.evaluate", set.name) {
              Evaluator.evaluate(model, evalFeatures(set, parser),
                pipeline.evalMetrics.filter(m => m == "Accuracy" || m == "F1Macro")
                  .map(Evaluator.decomposableByName),
                pipeline.evalMetrics.filter(_ == "RocAuc").map(Evaluator.holisticByName))
            }
          }.toMap
        }
        reports += TriggerReport(triggerId, result, bytes, evals)
        trained += 1
      }

      val replay = t.span("storage.allSamplesByTime")(registry.allSamplesByTime())
      replay.grouped(replayBatchSize).foreach { batch =>
        val newSamples = batch.map(m => NewSample(m.key, m.label, m.timestampSec))
        val triggerIdxs = t.span("trigger.inform")(triggerPolicy.inform(newSamples))
        var consumed = 0
        triggerIdxs.foreach { idx =>
          t.span("selector.inform")(strategy.inform(newSamples.slice(consumed, idx + 1)))
          consumed = idx + 1
          fireTrigger()
        }
        if (consumed < newSamples.length) t.span("selector.inform")(strategy.inform(newSamples.drop(consumed)))
      }
      if (trailingTrigger) fireTrigger()
      ctx.backend.close()
      PipelineReport(pipeline.pipelineName, reports.result())
    }

  /** The evaluator's input stream, as the supervisor builds it, with the
    * time spent waiting on storage retrieval counted apart from the rest.
    */
  private def evalFeatures(set: EvalSet, parser: repro.trainer.BytesParser): Iterator[(Array[Float], Int)] = {
    val chunks = t.timed("eval.retrieve")(storage.retrieve(set.keys, nThreads = 4))
    val timedChunks = new Iterator[repro.storage.PayloadBatch] {
      override def hasNext: Boolean = t.timed("eval.retrieve")(chunks.hasNext)
      override def next(): repro.storage.PayloadBatch = t.timed("eval.retrieve")(chunks.next())
    }
    timedChunks.flatMap { chunk =>
      (0 until chunk.size).iterator.map(i => (parser.parse(chunk.payloads(i)), chunk.labels(i).toInt))
    }
  }
}
