package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.selector.DownsamplingConfig

class AccuracyExperimentSpec extends AnyFunSuite {

  test("the three §5.2 pipelines parse with the fields the T4/T5 gates depend on") {
    val ps = AccuracyExperiment.Strategies.map(k => k -> AccuracyExperiment.pipeline(k, 48, 64)).toMap
    ps.foreach { case (kind, p) =>
      assert(p.pipelineName == s"cloc_$kind")
      assert(p.modelConfig == Map("num_classes" -> 48.0, "feature_dim" -> 64.0))
      assert(p.triggerId == "TimeTrigger" && p.triggerConfig("every_seconds") == 31536000.0)
      assert(p.batchSize == 256 && p.epochs == 3)
      assert(p.dataloader.numWorkers == 4 && p.dataloader.prefetchedPartitions == 2)
      assert(p.dataloader.storageThreads == 2 && p.partitionSize == 2000)
      assert(p.sgd.lr == 0.025 && p.sgd.momentum == 0.9 && p.sgd.weightDecay == 1e-4)
    }
    val common = Map("storage_backend" -> "local", "reset_after_trigger" -> "true")
    assert(ps("full").selectionName == "NewDataStrategy")
    assert(ps("full").selectionConfig == common && ps("full").downsampling.isEmpty)
    assert(ps("uniform50").selectionName == "UniformRandomStrategy")
    assert(ps("uniform50").selectionConfig == common + ("fraction" -> "0.5"))
    assert(ps("uniform50").downsampling.isEmpty)
    assert(ps("gradnorm50").selectionName == "CoresetStrategy")
    assert(ps("gradnorm50").selectionConfig == common + ("presampling" -> "NewDataStrategy"))
    assert(ps("gradnorm50").downsampling.contains(DownsamplingConfig("GradNormCE", 0.5, sampleThenBatch = true)))
  }
}
