package repro.core

import repro.core.yaml.{Yaml, YamlMap, YamlValue}
import repro.selector.DownsamplingConfig
import repro.trainer.{OnlineDatasetConfig, SgdConfig}

/** A fully validated Modyn pipeline definition (§3.5, Fig. 2): model,
  * dataset + bytes parser, triggering policy, data selection policy,
  * training hyperparameters, dataloader tuning, and the model storage
  * policy. Users author this as YAML and register it with the supervisor;
  * [[PipelineConfig.fromYaml]] is the CLI-side parsing + validation.
  */
final case class PipelineConfig(
    pipelineName: String,
    modelId: String,
    modelConfig: Map[String, Double],
    datasetId: String,
    bytesParser: String,
    triggerId: String,
    triggerConfig: Map[String, Double],
    usePreviousModel: Boolean,
    batchSize: Int,
    epochs: Int,
    sgd: SgdConfig,
    dataloader: OnlineDatasetConfig,
    partitionSize: Int,
    selectionName: String,
    selectionConfig: Map[String, String],
    downsampling: Option[DownsamplingConfig],
    fullModelInterval: Int,
    evalMetrics: Seq[String],
    seed: Long) {
  require(batchSize > 0, "batch_size must be positive")
  require(epochs > 0, "epochs must be positive")
  require(partitionSize > 0, "partition_size must be positive")
  require(fullModelInterval >= 1, "full model interval must be >= 1")
}

object PipelineConfig {

  /** Parse and validate a pipeline YAML document. Unknown strategy / model
    * / trigger names fail later at instantiation, with their own errors;
    * structural problems fail here with the offending key. So does a key
    * that no section reads, which would otherwise leave a misspelled
    * setting at its default; `model.config`, `trigger_config` and the
    * selection strategy's `config` belong to the named component and stay
    * open.
    */
  def fromYaml(text: String): PipelineConfig = {
    /** `v` itself, once every key of it (if it is a map) is in `known`. */
    def checked(v: YamlValue, section: String, known: String*): YamlValue = {
      v match {
        case YamlMap(m) =>
          val unknown = m.keySet -- known
          if (unknown.nonEmpty) throw new IllegalArgumentException(
            s"unknown key ${unknown.toSeq.sorted.map(k => s"'$k'").mkString(", ")} in $section" +
              s" (known: ${known.mkString(", ")})")
        case _ =>
      }
      v
    }

    val y = checked(Yaml.parse(text), "the top level",
      "pipeline", "seed", "model", "data", "trigger", "training", "model_storage", "evaluation")

    def numMap(v: YamlValue): Map[String, Double] =
      v.map.collect { case (k, value) if value != repro.core.yaml.YamlNull => k -> value.num }

    def strMap(v: YamlValue): Map[String, String] =
      v.map.collect { case (k, value) if value != repro.core.yaml.YamlNull => k -> value.str }

    val model    = checked(y("model"), "model", "id", "config")
    val data     = checked(y("data"), "data", "dataset_id", "bytes_parser")
    val trigger  = checked(y("trigger"), "trigger", "id", "trigger_config")
    val training = checked(y("training"), "training", "use_previous_model", "batch_size", "epochs",
      "dataloader_workers", "prefetched_partitions", "parallel_prefetch_requests", "storage_threads",
      "partition_size", "optimizer", "selection_strategy")
    val sel      = checked(training("selection_strategy"), "selection_strategy",
      "name", "config", "downsampling_config")

    val downsampling = sel.get("downsampling_config")
      .map(checked(_, "downsampling_config", "name", "ratio", "sample_then_batch")).map { d =>
      DownsamplingConfig(
        name = d("name").str,
        ratio = d("ratio").num,
        sampleThenBatch = d.get("sample_then_batch").forall(_.bool))
    }

    val optimizer = training.get("optimizer").map(checked(_, "optimizer", "lr", "momentum", "weight_decay"))
      .getOrElse(YamlMap(Map.empty))
    val modelStorage = y.get("model_storage").map(checked(_, "model_storage", "full_model_interval"))
    val evaluation   = y.get("evaluation").map(checked(_, "evaluation", "metrics"))

    PipelineConfig(
      pipelineName = y.get("pipeline").map(_.str).getOrElse("unnamed"),
      modelId = model("id").str,
      modelConfig = model.get("config").map(numMap).getOrElse(Map.empty),
      datasetId = data("dataset_id").str,
      bytesParser = data.get("bytes_parser").map(_.str).getOrElse(data("dataset_id").str),
      triggerId = trigger("id").str,
      triggerConfig = trigger.get("trigger_config").map(numMap).getOrElse(Map.empty),
      usePreviousModel = training.get("use_previous_model").forall(_.bool),
      batchSize = training("batch_size").int,
      epochs = training.get("epochs").map(_.int).getOrElse(1),
      sgd = SgdConfig(
        lr = optimizer.get("lr").map(_.num).getOrElse(0.01),
        momentum = optimizer.get("momentum").map(_.num).getOrElse(0.0),
        weightDecay = optimizer.get("weight_decay").map(_.num).getOrElse(0.0)),
      dataloader = OnlineDatasetConfig(
        numWorkers = training.get("dataloader_workers").map(_.int).getOrElse(1),
        batchSize = training("batch_size").int,
        prefetchedPartitions = training.get("prefetched_partitions").map(_.int).getOrElse(1),
        parallelPrefetchRequests =
          training.get("parallel_prefetch_requests").map(_.int).getOrElse(1),
        storageThreads = training.get("storage_threads").map(_.int).getOrElse(1)),
      partitionSize = training.get("partition_size").map(_.int).getOrElse(10000),
      selectionName = sel("name").str,
      selectionConfig = sel.get("config").map(strMap).getOrElse(Map.empty),
      downsampling = downsampling,
      fullModelInterval = modelStorage.flatMap(_.get("full_model_interval")).map(_.int).getOrElse(1),
      evalMetrics = evaluation.flatMap(_.get("metrics")).map(_.list.map(_.str)).getOrElse(Seq("Accuracy")),
      seed = y.get("seed").map(_.long).getOrElse(0L))
  }
}
