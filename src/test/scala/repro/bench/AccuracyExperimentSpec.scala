package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
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

  test("the gradnorm50 pipeline gives the same report on every run") {
    withTmpDir { dir =>
      val registry = AccuracyExperiment.generateCorpus(dir, samplesPerYear = 300, numClasses = 8,
        featureDim = 16)
      // It trains with 2 storage threads, 4 workers and 2 prefetched partitions.
      val outcomes = (0 until 4).map { i =>
        val report = AccuracyExperiment.run("gradnorm50", registry, s"$dir/run$i", 8, 16)
        (report.accuracyMatrix,
          report.triggers.map(t => (t.triggerId, t.training.meanLoss, t.training.samplesTrainedOn)))
      }
      assert(outcomes.head._2.size == 11)
      assert(outcomes.distinct.size == 1, outcomes.map(_._2.map(_._2)).mkString("\n"))
      registry.close()
    }
  }
}
