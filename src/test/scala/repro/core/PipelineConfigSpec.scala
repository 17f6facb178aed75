package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.selector.DownsamplingConfig

class PipelineConfigSpec extends AnyFunSuite {

  private val full =
    """pipeline: cloc_full
      |seed: 7
      |model:
      |  id: SoftmaxRegression
      |  config:
      |    num_classes: 48
      |    feature_dim: 64
      |data:
      |  dataset_id: cloc
      |trigger:
      |  id: TimeTrigger
      |  trigger_config:
      |    every_seconds: 31536000
      |training:
      |  use_previous_model: True
      |  batch_size: 256
      |  epochs: 3
      |  dataloader_workers: 4
      |  prefetched_partitions: 2
      |  parallel_prefetch_requests: 1
      |  storage_threads: 2
      |  partition_size: 5000
      |  optimizer:
      |    lr: 0.025
      |    momentum: 0.9
      |    weight_decay: 0.0001
      |  selection_strategy:
      |    name: NewDataStrategy
      |    config:
      |      storage_backend: "local"
      |      reset_after_trigger: True
      |model_storage:
      |  full_model_interval: 5
      |evaluation:
      |  metrics: [Accuracy, F1Macro]
      |""".stripMargin

  test("full pipeline parses with every field") {
    val p = PipelineConfig.fromYaml(full)
    assert(p.pipelineName == "cloc_full")
    assert(p.seed == 7)
    assert(p.modelId == "SoftmaxRegression")
    assert(p.modelConfig == Map("num_classes" -> 48.0, "feature_dim" -> 64.0))
    assert(p.datasetId == "cloc" && p.bytesParser == "cloc")
    assert(p.triggerId == "TimeTrigger")
    assert(p.triggerConfig("every_seconds") == 31536000.0)
    assert(p.usePreviousModel)
    assert(p.batchSize == 256 && p.epochs == 3)
    assert(p.sgd.lr == 0.025 && p.sgd.momentum == 0.9 && p.sgd.weightDecay == 1e-4)
    assert(p.dataloader.numWorkers == 4 && p.dataloader.prefetchedPartitions == 2)
    assert(p.dataloader.storageThreads == 2)
    assert(p.partitionSize == 5000)
    assert(p.selectionName == "NewDataStrategy")
    assert(p.selectionConfig("storage_backend") == "local")
    assert(p.selectionConfig("reset_after_trigger") == "true")
    assert(p.downsampling.isEmpty)
    assert(p.fullModelInterval == 5)
    assert(p.evalMetrics == Seq("Accuracy", "F1Macro"))
  }

  test("minimal pipeline falls back to defaults") {
    val p = PipelineConfig.fromYaml(
      """model:
        |  id: LogisticRegression
        |data:
        |  dataset_id: criteo
        |trigger:
        |  id: DataAmountTrigger
        |  trigger_config:
        |    data_points_for_trigger: 1000
        |training:
        |  batch_size: 64
        |  selection_strategy:
        |    name: NewDataStrategy
        |""".stripMargin)
    assert(p.pipelineName == "unnamed")
    assert(p.epochs == 1 && p.usePreviousModel)
    assert(p.sgd.lr == 0.01 && p.sgd.momentum == 0.0)
    assert(p.dataloader.numWorkers == 1 && p.dataloader.prefetchedPartitions == 1)
    assert(p.partitionSize == 10000 && p.fullModelInterval == 1)
    assert(p.evalMetrics == Seq("Accuracy"))
  }

  test("downsampling config parses") {
    val p = PipelineConfig.fromYaml(
      """model:
        |  id: SoftmaxRegression
        |  config:
        |    num_classes: 4
        |data:
        |  dataset_id: cloc
        |trigger:
        |  id: DataAmountTrigger
        |  trigger_config:
        |    data_points_for_trigger: 10
        |training:
        |  batch_size: 8
        |  selection_strategy:
        |    name: CoresetStrategy
        |    config:
        |      presampling: NewDataStrategy
        |    downsampling_config:
        |      name: GradNormCE
        |      ratio: 0.5
        |      sample_then_batch: False
        |""".stripMargin)
    val ds = p.downsampling.get
    assert(ds.name == "GradNormCE" && ds.ratio == 0.5 && !ds.sampleThenBatch)
  }

  test("missing required sections fail with the key name") {
    val noModel = intercept[NoSuchElementException] {
      PipelineConfig.fromYaml("data:\n  dataset_id: x\n")
    }
    assert(noModel.getMessage.contains("model"))
    intercept[NoSuchElementException] {
      PipelineConfig.fromYaml(
        "model:\n  id: X\ndata:\n  dataset_id: x\ntrigger:\n  id: T\n")
    }
  }

  test("missing batch_size fails") {
    intercept[NoSuchElementException] {
      PipelineConfig.fromYaml(
        """model:
          |  id: X
          |data:
          |  dataset_id: x
          |trigger:
          |  id: T
          |training:
          |  selection_strategy:
          |    name: NewDataStrategy
          |""".stripMargin)
    }
  }

  test("invalid values are rejected by validation") {
    intercept[IllegalArgumentException] {
      PipelineConfig.fromYaml(full.replace("batch_size: 256", "batch_size: 0"))
    }
    intercept[IllegalArgumentException] {
      PipelineConfig.fromYaml(full.replace("ratio: 0.5", "ratio: 0.5")
        .replace("epochs: 3", "epochs: -1"))
    }
  }

  test("bytes_parser can differ from dataset_id") {
    val p = PipelineConfig.fromYaml(
      """model:
        |  id: LogisticRegression
        |data:
        |  dataset_id: my_clicklogs
        |  bytes_parser: criteo
        |trigger:
        |  id: DataAmountTrigger
        |  trigger_config:
        |    data_points_for_trigger: 5
        |training:
        |  batch_size: 4
        |  selection_strategy:
        |    name: NewDataStrategy
        |""".stripMargin)
    assert(p.datasetId == "my_clicklogs" && p.bytesParser == "criteo")
  }

  test("the README's pipeline parses") {
    val readme = new String(java.nio.file.Files.readAllBytes(java.nio.file.Paths.get("README.md")), "UTF-8")
    val start  = readme.indexOf("```yaml\n") + "```yaml\n".length
    val p = PipelineConfig.fromYaml(readme.substring(start, readme.indexOf("```", start)))
    assert(p.modelConfig("num_classes") == 48.0)
    assert(p.triggerConfig("every_seconds") == 31536000.0)
    assert(p.sgd.lr == 0.025 && p.sgd.momentum == 0.9 && p.sgd.weightDecay == 1e-4)
    assert(p.selectionConfig("storage_backend") == "spark")
    assert(p.downsampling.contains(DownsamplingConfig("GradNormCE", 0.5, sampleThenBatch = true)))
  }

  test("a fractional batch_size is refused, naming the value") {
    val e = intercept[IllegalArgumentException] {
      PipelineConfig.fromYaml(full.replace("batch_size: 256", "batch_size: 2.5"))
    }
    assert(e.getMessage.contains("2.5"))
    assert(PipelineConfig.fromYaml(full.replace("batch_size: 256", "batch_size: 256.0")).batchSize == 256)
  }

  test("an out-of-range dataloader_workers is refused, naming the value") {
    val e = intercept[IllegalArgumentException] {
      PipelineConfig.fromYaml(full.replace("dataloader_workers: 4", "dataloader_workers: 3000000000"))
    }
    assert(e.getMessage.contains("3000000000"))
  }

  test("a seed above 2^53 keeps every bit") {
    val p = PipelineConfig.fromYaml(full.replace("seed: 7", "seed: 9007199254740993"))
    assert(p.seed == 9007199254740993L)
  }

  test("a duplicated key is refused, naming the key") {
    val e = intercept[IllegalArgumentException] {
      PipelineConfig.fromYaml(full.replace("batch_size: 256", "batch_size: 256\n  batch_size: 512"))
    }
    assert(e.getMessage.contains("duplicate key batch_size"))
  }

  test("a key that no section reads is refused, naming the key and its section") {
    def refused(yaml: String): String = intercept[IllegalArgumentException](PipelineConfig.fromYaml(yaml)).getMessage
    assert(refused(full.replace("dataloader_workers: 4", "dataloader_worker: 4\n  epoch: 9"))
      .contains("'dataloader_worker', 'epoch' in training"))
    assert(refused(full.replace("    lr: 0.025", "    learning_rate: 0.025")).contains("'learning_rate' in optimizer"))
    assert(refused(full.replace("  full_model_interval: 5", "  full_model_intervals: 5"))
      .contains("'full_model_intervals' in model_storage"))
    assert(refused(full + "sed: 3\n").contains("'sed' in the top level"))
    // The configs of the model, the trigger and the strategy stay open.
    val p = PipelineConfig.fromYaml(full.replace("    feature_dim: 64", "    feature_dim: 64\n    depth: 3")
      .replace("    every_seconds: 31536000", "    every_seconds: 31536000\n    offset: 1")
      .replace("      reset_after_trigger: True", "      reset_after_trigger: True\n      extra: x"))
    assert(p.modelConfig("depth") == 3.0 && p.triggerConfig("offset") == 1.0 && p.selectionConfig("extra") == "x")
  }
}
