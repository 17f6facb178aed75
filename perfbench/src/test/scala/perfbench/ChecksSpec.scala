package perfbench

import java.nio.file.{Files, Path, Paths}
import org.scalatest.BeforeAndAfterEach
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Supervisor
import repro.datagen.{ClocLite, CriteoLite}
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}
import repro.trainer._

/** The benchmark's output checks on tiny corpora: a broken data path must
  * surface as a failed operation, never as a crash or a silent pass.
  */
class ChecksSpec extends AnyFunSuite with BeforeAndAfterEach {
  private val fs = new LocalFileSystemWrapper
  private var dir: Path = _
  private val seed = 5L
  private val n = 2000
  private val loader = OnlineDatasetConfig(2, 128, 1, 1, 1)

  override def beforeEach(): Unit = {
    Files.createDirectories(Paths.get("..", ".bench_build"))
    dir = Files.createTempDirectory(Paths.get("..", ".bench_build"), "checks-spec")
  }
  override def afterEach(): Unit = Workload.deleteTree(dir)

  private def criteo(): (SampleRegistry, TrainingSet) = {
    val registry = new SampleRegistry
    CriteoLite.generate(fs, registry, s"$dir/data", n, 500, seed)
    (registry, DataPath.persist(registry, fs, s"$dir/tss", n, 500, seed, sendBufferSize = 256))
  }

  private def epochs(set: TrainingSet, tally: Tally): Seq[EpochStats] = {
    val model = new LogisticRegressionModel(CriteoLite.NumNumeric + 128, SgdConfig(lr = 0.1))
    DataPath.epochs(1, tally, DataPath.epoch(new TssSource(set.tts(fs)), set.storage(fs),
      new CriteoBytesParser(128), model, loader, Expected.criteo(n, seed, seed, 128)))
  }

  test("an intact data path passes every check") {
    val (registry, set) = criteo()
    val tally = new Tally
    val stats = epochs(set, tally)
    registry.close()
    assert(tally.attempted == 1 && tally.failed == 0)
    assert(stats.head.samples == n)
  }

  test("a corrupted payload is a failed operation") {
    val (registry, set) = criteo()
    val exp = Expected.criteo(n, seed, seed, 128)
    val victim = (1L to n.toLong).find(exp.sampled).get
    val file = registry.fileMeta(((victim - 1) / 500).toInt).path
    val bytes = fs.readAll(file)
    // Change one numeric feature of the sampled record, keep its label.
    val at = ((victim - 1) % 500).toInt * CriteoLite.RecordSize + 4
    bytes(at + 3) = (bytes(at + 3) ^ 0x01).toByte
    fs.write(file, bytes)
    val tally = new Tally
    assert(epochs(set, tally).isEmpty)
    registry.close()
    assert(tally.attempted == 1 && tally.failed == 1)
  }

  test("a run whose every epoch failed still prints its result line") {
    val (registry, set) = criteo()
    registry.deleteSamples(Seq(17L))
    val tally = new Tally
    val rounds = Seq((epochs(set, tally), None, Seq((500, 1000000L))))
    registry.close()
    val (metrics, context) = CriteoWorkload.summarize(rounds)
    val line = Main.resultLine(Outcome(tally, metrics + ("setup_s" -> 1.0), context, Nil),
      Args("criteo-bigpart", seed, 1, trace = false, dir))
    Seq(""""correct": false""", """"attempted": 1,""", """"failed": 1,""", """"train_samples_per_s": 0.0""",
      """"consumer_wait_share": 0.0""").foreach(part => assert(line.contains(part), line))
  }

  test("a missing key is a failed operation") {
    val (registry, set) = criteo()
    registry.deleteSamples(Seq(17L))
    val tally = new Tally
    assert(epochs(set, tally).isEmpty)
    registry.close()
    assert(tally.attempted == 1 && tally.failed == 1)
  }

  test("an ingested key that resolves to the wrong file is caught") {
    val registry = new SampleRegistry
    val metas = CriteoLite.generate(fs, registry, s"$dir/data", n, 500, seed)
    val paths = metas.map(m => registry.fileMeta(m.fileId).path)
    assert(IngestCheck.resolve(registry, n, 7, k => paths((k - 1).toInt), k => ((k - 1) % 500).toInt).isEmpty)
    val wrong = IngestCheck.resolve(registry, n, 7, k => paths(((k - 1 + 500) % n).toInt), k => ((k - 1) % 500).toInt)
    registry.close()
    assert(wrong.size == (1 to n by 7).size)
  }

  test("the traced replay and the expected trigger sizes match the supervisor") {
    val perYear = 40
    val registry = new SampleRegistry
    val metas = ClocLite.generate(fs, registry, s"$dir/cloc", perYear, 8, 8, seed)
    val evalSets = Supervisor.yearlyEvalSets(metas)
    val sizes = PipelineCheck.timeTriggerSizes(metas.map(_.timestampSec), 31536000L)
    assert(sizes.size == ClocLite.Years.size && sizes.sum == metas.size)
    Pipelines.ClocKinds.foreach { kind =>
      val cfg = Pipelines.cloc(kind, seed, 8, 8)
      val plain = new Supervisor(cfg, registry, new StorageService(registry, fs, 64), fs, s"$dir/p-$kind")
        .runExperiment(replayBatchSize = 50, evalSets = evalSets, trailingTrigger = true)
      val t = new Tracer("spec")
      val traced = new PipelineDriver(cfg, registry, new StorageService(registry, fs, 64),
        new TracedFs(fs, t, "sel"), new TracedFs(fs, t, "model", readSpans = true), s"$dir/t-$kind", t)
        .run(replayBatchSize = 50, evalSets = evalSets, trailingTrigger = true)
      val expected = Pipelines.clocExpectedTrained(kind, sizes)
      assert(PipelineCheck.check(plain, expected, evalSets.map(_.name)).isEmpty, kind)
      assert(traced.accuracyMatrix == plain.accuracyMatrix, kind)
      assert(traced.triggers.map(_.training.samplesTrainedOn) == expected, kind)
      assert(PipelineCheck.check(plain, expected.map(_ + 1), evalSets.map(_.name)).nonEmpty, kind)
    }
    registry.close()
  }

  test("batch-then-sample training counts follow the dataloader's batching") {
    val registry = new SampleRegistry
    CriteoLite.generate(fs, registry, s"$dir/data", n, 500, seed)
    val cfg = Pipelines.criteo(seed, partitionSize = 300, pointsPerTrigger = 700)
    val report = new Supervisor(cfg, registry, new StorageService(registry, fs, 256), fs, s"$dir/p")
      .runExperiment(replayBatchSize = 250, evalSets = Nil, trailingTrigger = false)
    registry.close()
    val perTrigger = PipelineCheck.btsTrained(700, 300, 2, 2048, 0.5)
    assert(report.triggers.map(_.training.samplesTrainedOn) == Seq(perTrigger, perTrigger))
  }
}
