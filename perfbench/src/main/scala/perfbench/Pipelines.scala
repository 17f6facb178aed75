package perfbench

import repro.core.{PipelineConfig, PipelineReport}

/** The benchmark's pipeline definitions and the per-layer numbers of a
  * traced pipeline replay.
  */
object Pipelines {

  private def yaml(name: String, seed: Long, model: String, data: String, trigger: String,
                   training: String, selection: String): PipelineConfig =
    PipelineConfig.fromYaml(
      s"""pipeline: $name
         |seed: $seed
         |model:
         |$model
         |data:
         |  dataset_id: $data
         |trigger:
         |$trigger
         |training:
         |  use_previous_model: True
         |$training
         |$selection
         |model_storage:
         |  full_model_interval: 5
         |""".stripMargin)

  /** DLRM-lite on Criteo-lite: a trigger every 100 k samples, new data
    * only, gradient-norm batch-then-sample downsampling to half of each
    * batch, one epoch, with the workload's dataloader and partition size.
    */
  def criteo(seed: Long, partitionSize: Int, pointsPerTrigger: Int): PipelineConfig =
    yaml("criteo_gradnorm_bts", seed,
      model = """  id: LogisticRegression
                |  config:
                |    hash_dim: 128""".stripMargin,
      data = "criteo",
      trigger = s"""  id: DataAmountTrigger
                   |  trigger_config:
                   |    data_points_for_trigger: $pointsPerTrigger""".stripMargin,
      training = s"""  batch_size: 2048
                    |  epochs: 1
                    |  dataloader_workers: 2
                    |  prefetched_partitions: 1
                    |  parallel_prefetch_requests: 1
                    |  storage_threads: 1
                    |  partition_size: $partitionSize
                    |  optimizer:
                    |    lr: 0.1""".stripMargin,
      selection = """  selection_strategy:
                    |    name: NewDataStrategy
                    |    config:
                    |      storage_backend: "local"
                    |      reset_after_trigger: True
                    |    downsampling_config:
                    |      name: GradNormCE
                    |      ratio: 0.5
                    |      sample_then_batch: False""".stripMargin)

  /** The three §5.2 CLOC pipelines. */
  val ClocKinds: Seq[String] = Seq("full", "uniform50", "gradnorm50")
  /** Epochs per trigger of every CLOC pipeline. */
  val ClocEpochs = 3

  /** ResNet-lite on CLOC-lite: yearly time triggers, warm start, three
    * epochs, and the §5.2 optimizer; two dataloader workers and one storage
    * thread, so that one pipeline does not oversubscribe four cores.
    */
  def cloc(kind: String, seed: Long, numClasses: Int, featureDim: Int): PipelineConfig = {
    val strategy = kind match {
      case "full" =>
        """    name: NewDataStrategy
          |    config:
          |      storage_backend: "local"
          |      reset_after_trigger: True""".stripMargin
      case "uniform50" =>
        """    name: UniformRandomStrategy
          |    config:
          |      storage_backend: "local"
          |      reset_after_trigger: True
          |      fraction: 0.5""".stripMargin
      case "gradnorm50" =>
        """    name: CoresetStrategy
          |    config:
          |      storage_backend: "local"
          |      presampling: NewDataStrategy
          |      reset_after_trigger: True
          |    downsampling_config:
          |      name: GradNormCE
          |      ratio: 0.5
          |      sample_then_batch: True""".stripMargin
      case other => throw new IllegalArgumentException(s"unknown CLOC pipeline '$other'")
    }
    yaml(s"cloc_$kind", seed,
      model = s"""  id: ResNet50
                 |  config:
                 |    num_classes: $numClasses
                 |    feature_dim: $featureDim""".stripMargin,
      data = "cloc",
      trigger = """  id: TimeTrigger
                  |  trigger_config:
                  |    every_seconds: 31536000""".stripMargin,
      training = s"""  batch_size: 256
                   |  epochs: $ClocEpochs
                   |  dataloader_workers: 2
                   |  prefetched_partitions: 2
                   |  parallel_prefetch_requests: 1
                   |  storage_threads: 1
                   |  partition_size: 2000
                   |  optimizer:
                   |    lr: 0.025
                   |    momentum: 0.9
                   |    weight_decay: 0.0001""".stripMargin,
      selection = "  selection_strategy:\n" + strategy)
  }

  /** Samples trained per trigger, as `PipelineCheck` expects them, for a
    * CLOC pipeline over triggers of `sizes` samples.
    */
  def clocExpectedTrained(kind: String, sizes: Seq[Int]): Seq[Long] = sizes.map { n =>
    val kept = if (kind == "full") n.toLong else math.ceil(0.5 * n).toLong
    ClocEpochs * kept
  }

  /** Per-layer numbers of traced pipeline replays. `untracedNs` and
    * `tracedNs` are the wall times of the same pipelines without and with
    * tracing; `informed` is the number of samples the selector was told of.
    */
  def layerMetrics(t: Tracer, reports: Seq[PipelineReport], untracedNs: Long, tracedNs: Long,
                   informed: Long): Map[String, Double] = {
    val all = t.spans
    def spans(name: String) = all.filter(_.name == name)
    def meanMs(name: String) = { val ss = spans(name); ss.map(_.durNs).sum / 1e6 / ss.size }
    val triggers = reports.map(_.triggers.size).sum.toDouble
    // TSS partitions are written by parallel writer threads, one file each;
    // a partition's write time is the union of its files' write spans.
    val tssWrites = all.filter(s => s.name == "sel.write" && s.detail.contains("/tss/"))
    val byPartition = tssWrites.groupBy(s => s.detail.substring(0, s.detail.lastIndexOf("_w")))
    val onTrigger = spans("selector.onTrigger")
    val selectNs = onTrigger.map(s => s.durNs -
      Tracer.unionNs(tssWrites.filter(w => w.startNs >= s.startNs && w.endNs <= s.endNs))).sum
    val loads = spans("modelstorage.load")
    val loadIds = loads.map(_.id).toSet
    val evalNs = spans("evaluator.trigger").map(_.durNs).sum.toDouble
    val pipelines = spans("pipeline")
    Map(
      "selector.tss_write_ms_per_partition" -> byPartition.values.map(Tracer.unionNs).sum / 1e6 / byPartition.size,
      "selector.inform_ms" -> spans("selector.inform").map(_.durNs).sum / 1e6 / triggers,
      "selector.select_ms" -> selectNs / 1e6 / triggers,
      "selector.bytes_written_per_sample" -> t.counter("sel.write.bytes").toDouble / informed,
      "trainer.score_ns_per_sample" -> t.counter("model.score.ns").toDouble / t.counter("model.score.calls"),
      "trainer.run_training_ms_per_trigger" -> meanMs("trainer.runTraining"),
      "modelstorage.store_ms" -> meanMs("modelstorage.store"),
      "modelstorage.load_ms" -> meanMs("modelstorage.load"),
      "modelstorage.bytes_per_model" -> t.counter("modelstorage.bytes").toDouble / spans("modelstorage.store").size,
      "modelstorage.fs_reads_per_load" -> all.count(s => s.name == "model.read" && loadIds(s.parent)).toDouble / loads.size,
      "evaluator.eval_ms_per_trigger" -> evalNs / 1e6 / triggers,
      "evaluator.retrieve_share" -> t.counter("eval.retrieve.ns") / evalNs,
      "core.self_ms" -> pipelines.map(t.selfNs).sum / 1e6 / pipelines.size,
      "trace.pipeline_overhead_share" -> (tracedNs.toDouble / untracedNs - 1.0))
  }
}
