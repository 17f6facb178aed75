package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import repro.SparkSpec
import repro.TestUtil.{ForwardingFs, withTmpDir}
import repro.datagen.{ClocLite, CriteoLite}
import repro.selector.TriggerSampleStorage
import repro.storage.{FileSystemWrapper, LocalFileSystemWrapper, SampleRegistry, StorageService}
import repro.trainer.IdentityTransform

class SupervisorSpec extends SparkSpec {
  private val fs = new LocalFileSystemWrapper

  private def clocPipeline(backend: String, extra: String = ""): PipelineConfig =
    PipelineConfig.fromYaml(
      s"""pipeline: cloc_test
         |seed: 3
         |model:
         |  id: SoftmaxRegression
         |  config:
         |    num_classes: 6
         |    feature_dim: 16
         |data:
         |  dataset_id: cloc
         |trigger:
         |  id: TimeTrigger
         |  trigger_config:
         |    every_seconds: 31536000
         |training:
         |  use_previous_model: True
         |  batch_size: 32
         |  epochs: 2
         |  partition_size: 100
         |  optimizer:
         |    lr: 0.05
         |    momentum: 0.9
         |  selection_strategy:
         |    name: NewDataStrategy
         |    config:
         |      storage_backend: "$backend"
         |      reset_after_trigger: True
         |$extra""".stripMargin)

  test("end-to-end CLOC pipeline: yearly triggers, training, evaluation") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", samplesPerYear = 60,
        numClasses = 6, featureDim = 16, years = 2004 to 2007)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work")
      val evalSets = Supervisor.yearlyEvalSets(metas)
      val report = sup.runExperiment(replayBatchSize = 50, evalSets = evalSets,
        trailingTrigger = true)

      // 4 years of data with a 1-year trigger: triggers fire on the first
      // sample of 2005/2006/2007, plus the trailing trigger for 2007.
      assert(report.triggers.size == 4)
      report.triggers.foreach { t =>
        assert(t.training.samplesTrainedOn > 0)
        assert(t.storedModelBytes > 0)
        assert(t.evals.keySet == Set("2004", "2005", "2006", "2007"))
      }
      // A trained model beats random guessing (1/6) on its training year.
      val lastAcc = report.accuracyMatrix((3, "2007"))
      assert(lastAcc > 1.0 / 6, s"accuracy $lastAcc")
      registry.close()
    }
  }

  test("trigger training sets cover exactly the trigger's year (reset mode)") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 40, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work")
      val report = sup.runExperiment(replayBatchSize = 25, trailingTrigger = true)
      assert(report.triggers.size == 3)
      // First trigger trains on 2004's data (40 samples) + the one
      // 2005 sample that caused the trigger (inclusive semantics).
      assert(report.triggers(0).training.samplesTrainedOn == 2 * 41) // 2 epochs
      registry.close()
    }
  }

  test("experiment mode with the spark parquet backend") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 30, 4, 16, years = 2004 to 2005)
      val storage = new StorageService(registry, fs)
      /** The report and each trigger's ordered (key, weight) TSS sequence. */
      def run(backend: String): (PipelineReport, Seq[Seq[(Long, Double)]]) = {
        val p = clocPipeline(backend)
        val uniform = p.copy(selectionName = "UniformRandomStrategy",
          selectionConfig = p.selectionConfig + ("fraction" -> "0.5"))
        val sup = new Supervisor(uniform, registry, storage, fs, s"$dir/$backend",
          spark = Some(spark))
        val report = sup.runExperiment(replayBatchSize = 20, trailingTrigger = true)
        val tss = new TriggerSampleStorage(fs, s"$dir/$backend/tss")
        (report, report.triggers.map(t => tss.readTrigger(t.triggerId).map(x => (x.key, x.weight))))
      }
      val (report, selected) = run("spark")
      assert(report.triggers.size == 2)
      assert(report.triggers.forall(_.training.samplesTrainedOn > 0))
      assert(selected == run("local")._2)
      registry.close()
    }
  }

  test("criteo pipeline with amount trigger and downsampling") {
    withTmpDir { dir =>
      val pipeline = PipelineConfig.fromYaml(
        """pipeline: criteo_test
          |model:
          |  id: LogisticRegression
          |  config:
          |    hash_dim: 32
          |data:
          |  dataset_id: criteo
          |trigger:
          |  id: DataAmountTrigger
          |  trigger_config:
          |    data_points_for_trigger: 200
          |training:
          |  batch_size: 64
          |  partition_size: 100
          |  selection_strategy:
          |    name: CoresetStrategy
          |    config:
          |      storage_backend: "database"
          |      presampling: NewDataStrategy
          |    downsampling_config:
          |      name: GradNormCE
          |      ratio: 0.5
          |""".stripMargin)
      val registry = new SampleRegistry
      CriteoLite.generate(fs, registry, s"$dir/data", 500, samplesPerFile = 100)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(pipeline, registry, storage, fs, s"$dir/work")
      val report = sup.runExperiment(replayBatchSize = 120)
      assert(report.triggers.size == 2) // 500 samples / 200 per trigger
      // 200 presampled, downsampled to 100 each.
      report.triggers.foreach(t => assert(t.training.samplesTrainedOn == 100))
      registry.close()
    }
  }

  test("from-scratch training re-initializes per trigger") {
    withTmpDir { dir =>
      val p = clocPipeline("local").copy(usePreviousModel = false, epochs = 1)
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 30, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(p, registry, storage, fs, s"$dir/work")
      val report = sup.runExperiment(replayBatchSize = 30, trailingTrigger = true)
      assert(report.triggers.size == 3)
      registry.close()
    }
  }

  test("model storage keeps a restorable model per trigger") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 25, 4, 16, years = 2004 to 2006)
      val storage = new StorageService(registry, fs)
      val sup = new Supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work")
      sup.runExperiment(replayBatchSize = 25, trailingTrigger = true)
      val ms = new repro.modelstorage.ModelStorage(fs, s"$dir/work/models")
      (0 until 3).foreach { i =>
        val w = ms.load(i)
        assert(w.length == 6 * 16 + 6)
      }
      registry.close()
    }
  }

  private val allMetrics =
    """evaluation:
      |  metrics: [Accuracy, F1Macro, RocAuc]""".stripMargin

  /** Counts `read`/`readAll` calls per path. */
  private final class CountingFs extends ForwardingFs {
    val reads = new ConcurrentHashMap[String, AtomicInteger]()
    private def count(path: String): Unit =
      reads.computeIfAbsent(path, _ => new AtomicInteger).incrementAndGet()
    override def read(path: String, offset: Long, length: Int): Array[Byte] = {
      count(path); super.read(path, offset, length)
    }
    override def readAll(path: String): Array[Byte] = { count(path); super.readAll(path) }
    def readsOf(path: String): Int = Option(reads.get(path)).map(_.get).getOrElse(0)
  }

  private def supervisor(p: PipelineConfig, registry: SampleRegistry, storage: StorageService,
                         workFs: FileSystemWrapper, workDir: String,
                         evalBudgetBytes: Long): Supervisor =
    new Supervisor(p, registry, storage, workFs, workDir, None, IdentityTransform, evalBudgetBytes)

  test("a warm-start run reads no stored model back") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      ClocLite.generate(fs, registry, s"$dir/data", 25, 4, 16, years = 2004 to 2007)
      val workFs = new CountingFs
      // Models 1, 2 and 3 are P-frames: loading one back reads the chain.
      val p      = clocPipeline("local").copy(fullModelInterval = 3)
      assert(p.usePreviousModel)
      val report = new Supervisor(p, registry, new StorageService(registry, fs), workFs, s"$dir/work")
        .runExperiment(replayBatchSize = 25, trailingTrigger = true)
      assert(report.triggers.size == 4)
      val modelFiles = (0 until 4).map(i => f"$dir/work/models/model_$i%06d.bin")
      assert(modelFiles.forall(fs.exists))
      assert(modelFiles.map(workFs.readsOf) == Seq(0, 0, 0, 0))
      registry.close()
    }
  }

  test("each eval-set file is read once per run, not once per trigger") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", 25, 4, 16, years = 2004 to 2007)
      val evalSets = Supervisor.yearlyEvalSets(metas)
      // Training reads the same files, so count a run without eval sets
      // and take the difference.
      def readsPerFile(sets: Seq[EvalSet], run: String): Map[Long, Int] = {
        val cfs = new CountingFs
        val report = new Supervisor(clocPipeline("local"), registry, new StorageService(registry, cfs),
          fs, s"$dir/$run").runExperiment(replayBatchSize = 25, evalSets = sets, trailingTrigger = true)
        assert(report.triggers.size == 4)
        metas.map(m => m.key -> cfs.readsOf(registry.fileMeta(m.fileId).path)).toMap
      }
      val withEval = readsPerFile(evalSets, "with")
      val without  = readsPerFile(Seq.empty, "without")
      metas.foreach { m =>
        assert(withEval(m.key) - without(m.key) == 1, s"key ${m.key}")
      }
      registry.close()
    }
  }

  test("streamed eval sets give the same results as the eval block (CLOC-lite)") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", 30, 6, 16, years = 2004 to 2007)
      val storage  = new StorageService(registry, fs)
      val evalSets = Supervisor.yearlyEvalSets(metas)
      val twoSets  = 2 * 30 * Supervisor.evalRowBytes(16)
      val reports = Seq(Long.MaxValue, twoSets, 1L).map { budget =>
        supervisor(clocPipeline("local", allMetrics), registry, storage, fs, s"$dir/work$budget", budget)
          .runExperiment(replayBatchSize = 50, evalSets = evalSets, trailingTrigger = true)
      }
      assert(reports.head.triggers.size == 4)
      assert(reports.head.triggers.forall(_.evals.values.forall(_.map(_.metric) ==
        Seq("Accuracy", "F1Macro", "RocAuc"))))
      reports.tail.foreach { r =>
        assert(r.accuracyMatrix == reports.head.accuracyMatrix)
        assert(r.triggers.map(_.evals) == reports.head.triggers.map(_.evals))
      }
      registry.close()
    }
  }

  test("streamed eval sets give the same results as the eval block (Criteo-lite)") {
    withTmpDir { dir =>
      val pipeline = PipelineConfig.fromYaml(
        s"""pipeline: criteo_eval
          |model:
          |  id: LogisticRegression
          |  config:
          |    hash_dim: 32
          |data:
          |  dataset_id: criteo
          |trigger:
          |  id: DataAmountTrigger
          |  trigger_config:
          |    data_points_for_trigger: 200
          |training:
          |  batch_size: 64
          |  partition_size: 100
          |  selection_strategy:
          |    name: NewDataStrategy
          |    config:
          |      storage_backend: "local"
          |      reset_after_trigger: True
          |$allMetrics
          |""".stripMargin)
      val registry = new SampleRegistry
      CriteoLite.generate(fs, registry, s"$dir/data", 600, samplesPerFile = 70)
      val storage  = new StorageService(registry, fs)
      val evalSets = Seq(EvalSet("a", (1L to 150L).toArray), EvalSet("b", (151L to 600L).toArray))
      val reports = Seq(Long.MaxValue, 1L).map { budget =>
        supervisor(pipeline, registry, storage, fs, s"$dir/work$budget", budget)
          .runExperiment(replayBatchSize = 120, evalSets = evalSets)
      }
      assert(reports.head.triggers.size == 3)
      assert(reports.head.triggers.forall(_.evals.values.forall(_.map(_.metric) ==
        Seq("Accuracy", "F1Macro", "RocAuc"))))
      assert(reports(1).accuracyMatrix == reports.head.accuracyMatrix)
      assert(reports(1).triggers.map(_.evals) == reports.head.triggers.map(_.evals))
      registry.close()
    }
  }

  test("a key deleted after the eval block is filled fails the next evaluation") {
    Seq(Long.MaxValue, 1L).foreach { budget =>
      withTmpDir { dir =>
        val registry = new SampleRegistry
        val metas = ClocLite.generate(fs, registry, s"$dir/data", 25, 4, 16, years = 2004 to 2007)
        val evalSets = Supervisor.yearlyEvalSets(metas)
        val victim = evalSets.head.keys(3)
        // The second trigger's model is stored right before its evaluation.
        val hookFs = new ForwardingFs {
          override def write(path: String, bytes: Array[Byte]): Unit = {
            super.write(path, bytes)
            if (path.endsWith("model_000001.bin")) registry.deleteSamples(Seq(victim))
          }
        }
        val sup = supervisor(clocPipeline("local"), registry, new StorageService(registry, fs),
          hookFs, s"$dir/work", budget)
        val e = intercept[NoSuchElementException] {
          sup.runExperiment(replayBatchSize = 25, evalSets = evalSets, trailingTrigger = true)
        }
        assert(e.getMessage.contains(victim.toString), e.getMessage)
        registry.close()
      }
    }
  }

  test("a trigger's evalMs covers the eval data it retrieves") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", 24, 4, 16, years = 2004 to 2006)
      val evalSet = Supervisor.yearlyEvalSets(metas).head
      val slowPaths = evalSet.keys.map(k => registry.fileMeta(registry.lookup(Array(k)).head.fileId).path).toSet
      // Each read of an eval file takes at least 2 ms; 24 files over 4
      // retrieval threads take at least 12 ms.
      val slowFs = new ForwardingFs {
        override def read(path: String, offset: Long, length: Int): Array[Byte] = {
          if (slowPaths(path)) Thread.sleep(2); super.read(path, offset, length)
        }
        override def readAll(path: String): Array[Byte] = {
          if (slowPaths(path)) Thread.sleep(2); super.readAll(path)
        }
      }
      val storage = new StorageService(registry, slowFs)
      def evalMs(budget: Long) =
        supervisor(clocPipeline("local"), registry, storage, fs, s"$dir/work$budget", budget)
          .runExperiment(replayBatchSize = 24, evalSets = Seq(evalSet), trailingTrigger = true)
          .triggers.map(_.evalMs)
      val cached = evalMs(Long.MaxValue)
      assert(cached.size == 3 && cached.head >= 12, cached)
      val streamed = evalMs(1L)
      assert(streamed.size == 3 && streamed.forall(_ >= 12), streamed)
      registry.close()
    }
  }
}
