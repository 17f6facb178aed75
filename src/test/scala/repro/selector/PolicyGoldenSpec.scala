package repro.selector

import java.nio.{ByteBuffer, ByteOrder}
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.core.{PipelineConfig, PipelineReport, Supervisor}
import repro.datagen.{ClocLite, CriteoLite}
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}
import repro.util.Rng

/** Golden policy output. `StrategiesSpec` checks that the backends agree
  * with each other; this spec pins what they agree on. Each digest is a
  * SHA-256 prefix over every trigger's ordered `(key, raw weight bits)`
  * TSS sequence, recorded from the row-at-a-time selector that preceded
  * the columnar one. A change that moves every backend alike fails here.
  */
class PolicyGoldenSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  /** Digest of the TSS sequences, plus `extra` values (report numbers). */
  private def digest(triggers: Seq[Seq[SelectedSample]], extra: Seq[Long] = Nil): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val bb = ByteBuffer.allocate(16).order(ByteOrder.LITTLE_ENDIAN)
    def put(a: Long, b: Long): Unit = { bb.clear(); bb.putLong(a).putLong(b); md.update(bb.array) }
    triggers.foreach { t =>
      put(-1L, t.size.toLong)
      t.foreach(s => put(s.key, java.lang.Double.doubleToRawLongBits(s.weight)))
    }
    extra.foreach(put(-2L, _))
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  /** A label in 0..4 that does not follow the key. */
  private def labelOf(k: Long): Long = Math.floorMod(Rng.mix(k), 5L)

  /** `keys` in a fixed shuffled order, so backends must sort by key. */
  private def shuffled(keys: Range): Seq[NewSample] =
    keys.map(_.toLong).sortBy(k => Rng.mix2(k, 11L)).map(k => NewSample(k, labelOf(k), k))

  /** The presamplers of `StrategiesSpec`'s table, plus GDumb. */
  private val policies: Seq[(String, SelectorContext => SelectionStrategy)] = Seq(
    "newdata" -> (c => new NewDataStrategy(c, resetAfterTrigger = true)),
    "uniform with fraction" ->
      (c => new UniformRandomStrategy(c, resetAfterTrigger = false, fraction = Some(0.25))),
    "uniform with maxSamples" ->
      (c => new UniformRandomStrategy(c, resetAfterTrigger = true, maxSamples = Some(70))),
    "label-balanced" -> (c => new LabelBalancedStrategy(c, resetAfterTrigger = true)),
    "label-balanced with limit" ->
      (c => new LabelBalancedStrategy(c, resetAfterTrigger = true, limit = Some(90))),
    "trigger-balanced" -> (c => new TriggerBalancedStrategy(c, resetAfterTrigger = false)),
    "gdumb" -> (c => new GDumbStrategy(c, memorySize = 60)))

  private val policyGolden: Map[(String, Long), String] = Map(
    ("newdata", 1L) -> "4f9e102e76d16252",
    ("newdata", 7L) -> "4f9e102e76d16252",
    ("newdata", 99L) -> "4f9e102e76d16252",
    ("uniform with fraction", 1L) -> "cb1f60612cc73c14",
    ("uniform with fraction", 7L) -> "c92ac89554552aee",
    ("uniform with fraction", 99L) -> "0abba85ca9319ccc",
    ("uniform with maxSamples", 1L) -> "c99d1e9f4140f037",
    ("uniform with maxSamples", 7L) -> "1058c86a6564df8b",
    ("uniform with maxSamples", 99L) -> "266a24c582e5bd0f",
    ("label-balanced", 1L) -> "fff4500f64921723",
    ("label-balanced", 7L) -> "88d7c6eac7e9afc1",
    ("label-balanced", 99L) -> "0cd2941842fe64b5",
    ("label-balanced with limit", 1L) -> "5fc9558800cab6f3",
    ("label-balanced with limit", 7L) -> "a5473ed79b46c07a",
    ("label-balanced with limit", 99L) -> "43a6a3c1185c1292",
    ("trigger-balanced", 1L) -> "995fcaeb0c903d2f",
    ("trigger-balanced", 7L) -> "cbe03033c4ede68f",
    ("trigger-balanced", 99L) -> "59c42cf9d1a69568",
    ("gdumb", 1L) -> "32ac03bc18838c8a",
    ("gdumb", 7L) -> "f2e13e47b5ceeead",
    ("gdumb", 99L) -> "424841cc16b41f92")

  for ((name, make) <- policies; seed <- Seq(1L, 7L, 99L)) {
    test(s"golden: $name, seed $seed, on the local and database backends") {
      withTmpDir { dir =>
        val got = Seq("local", "database").map { kind =>
          val backend = StrategyFactory.backend(kind, fs, s"$dir/$kind", None)
          val ctx = SelectorContext(backend, new TriggerSampleStorage(fs, s"$dir/$kind/tss"),
            partitionSize = 64, seed = seed)
          val s = make(ctx)
          val perTrigger = Seq(1 to 300, 301 to 420).map { keys =>
            s.inform(shuffled(keys))
            val tts = s.onTrigger()
            tts.tss.readTrigger(tts.triggerId)
          }
          backend.close()
          kind -> digest(perTrigger)
        }
        got.foreach { case (kind, d) => assert(d == policyGolden((name, seed)), s"$kind backend") }
      }
    }
  }

  private def yaml(name: String, data: String, model: String, trigger: String,
                   training: String, selection: String): PipelineConfig =
    PipelineConfig.fromYaml(
      s"""pipeline: $name
         |seed: 5
         |model:
         |$model
         |data:
         |  dataset_id: $data
         |trigger:
         |$trigger
         |training:
         |  use_previous_model: True
         |$training
         |  selection_strategy:
         |$selection
         |""".stripMargin)

  private val selections: Seq[(String, String)] = Seq(
    "newdata" ->
      """    name: NewDataStrategy
        |    config:
        |      storage_backend: "local"
        |      reset_after_trigger: True""".stripMargin,
    "uniform50" ->
      """    name: UniformRandomStrategy
        |    config:
        |      storage_backend: "local"
        |      reset_after_trigger: True
        |      fraction: 0.5""".stripMargin,
    "trigger-balanced" ->
      """    name: TriggerBalancedStrategy
        |    config:
        |      storage_backend: "local"
        |      reset_after_trigger: False""".stripMargin,
    "gradnorm50" ->
      """    name: CoresetStrategy
        |    config:
        |      storage_backend: "local"
        |      presampling: NewDataStrategy
        |      reset_after_trigger: True
        |    downsampling_config:
        |      name: GradNormCE
        |      ratio: 0.5
        |      sample_then_batch: True""".stripMargin)

  /** The TSS of every trigger, each trigger's samples trained on and the
    * bits of its mean loss and of every accuracy.
    */
  private def runDigest(report: PipelineReport, workDir: String): String = {
    val tss = new TriggerSampleStorage(fs, s"$workDir/tss")
    val extra = report.triggers.flatMap(t => Seq(t.triggerId.toLong, t.training.samplesTrainedOn,
      java.lang.Double.doubleToRawLongBits(t.training.meanLoss))) ++
      report.accuracyMatrix.toSeq.sortBy(_._1).map(e => java.lang.Double.doubleToRawLongBits(e._2))
    digest(report.triggers.map(t => tss.readTrigger(t.triggerId)), extra)
  }

  private val supervisorGolden: Map[(String, String), String] = Map(
    ("criteo", "newdata") -> "7f8d8e4c7cfa68a0",
    ("criteo", "uniform50") -> "792dbc2c42ce92ee",
    ("criteo", "trigger-balanced") -> "0c9738299c8e6b30",
    ("criteo", "gradnorm50") -> "cdf1c58bb18f0d76",
    ("cloc", "newdata") -> "a9300cb0b74d4239",
    ("cloc", "uniform50") -> "0680b672914a58c9",
    ("cloc", "trigger-balanced") -> "3e1d38ae1696d70d",
    ("cloc", "gradnorm50") -> "53c20f198f2a84bb")

  test("golden: criteo-shaped supervisor runs") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      CriteoLite.generate(fs, registry, s"$dir/data", 900, samplesPerFile = 150)
      val storage = new StorageService(registry, fs, sendBufferSize = 64)
      val evalSets = Seq(repro.core.EvalSet("heldout", (801L to 900L).toArray))
      val got = selections.map { case (name, selection) =>
        val p = yaml(s"criteo_$name", "criteo",
          model = """  id: LogisticRegression
                    |  config:
                    |    hash_dim: 32""".stripMargin,
          trigger = """  id: DataAmountTrigger
                      |  trigger_config:
                      |    data_points_for_trigger: 250""".stripMargin,
          training = """  batch_size: 64
                       |  epochs: 1
                       |  dataloader_workers: 2
                       |  storage_threads: 2
                       |  partition_size: 60""".stripMargin,
          selection = selection)
        val work = s"$dir/$name"
        val report = new Supervisor(p, registry, storage, fs, work)
          .runExperiment(replayBatchSize = 70, evalSets = evalSets, trailingTrigger = true)
        name -> runDigest(report, work)
      }
      registry.close()
      got.foreach { case (name, d) => assert(d == supervisorGolden(("criteo", name)), name) }
    }
  }

  test("golden: cloc-shaped supervisor runs") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas = ClocLite.generate(fs, registry, s"$dir/data", samplesPerYear = 50,
        numClasses = 6, featureDim = 16, years = 2004 to 2007)
      val storage = new StorageService(registry, fs, sendBufferSize = 16)
      val evalSets = Supervisor.yearlyEvalSets(metas)
      val got = selections.map { case (name, selection) =>
        val p = yaml(s"cloc_$name", "cloc",
          model = """  id: SoftmaxRegression
                    |  config:
                    |    num_classes: 6
                    |    feature_dim: 16""".stripMargin,
          trigger = """  id: TimeTrigger
                      |  trigger_config:
                      |    every_seconds: 31536000""".stripMargin,
          training = """  batch_size: 32
                       |  epochs: 2
                       |  dataloader_workers: 2
                       |  partition_size: 40
                       |  optimizer:
                       |    lr: 0.05
                       |    momentum: 0.9""".stripMargin,
          selection = selection)
        val work = s"$dir/$name"
        val report = new Supervisor(p, registry, storage, fs, work)
          .runExperiment(replayBatchSize = 45, evalSets = evalSets, trailingTrigger = true)
        name -> runDigest(report, work)
      }
      registry.close()
      got.foreach { case (name, d) => assert(d == supervisorGolden(("cloc", name)), name) }
    }
  }
}
