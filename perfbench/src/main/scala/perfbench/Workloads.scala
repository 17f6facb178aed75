package perfbench

import java.nio.file.{Files, Path}
import repro.core.{EvalSet, PipelineConfig, PipelineReport, Supervisor}
import repro.datagen.{ClocLite, CriteoLite}
import repro.storage._
import repro.trainer._

/** Command-line settings of one benchmark run. */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: Path)

/** What a run reports: the tally of operations, the metrics by name, and
  * context (settings, machine, JVM counters) that is printed but not judged.
  */
final case class Outcome(tally: Tally, metrics: Map[String, Double], context: Map[String, Any],
                         tracers: Seq[Tracer])

/** Shared shape of a run: build the corpus several times (the last build
  * is kept), warm up, then either measure untraced for `--seconds` or make
  * the traced run.
  */
abstract class Workload {
  val fs = new LocalFileSystemWrapper
  /** Corpus builds per run; setup_s takes their median. */
  val SetupRounds: Int
  /** Seed of the corpus generator. It is fixed, so that every run seed
    * poses a task of the same difficulty and accuracy compares across
    * seeds; the run seed picks the TSS weights, the pipelines' seed (model
    * initialization, sampling, downsampling draws) and the checked keys.
    */
  val DataSeed: Long
  /** The fixed warm-up, as recorded in the run's context. */
  val WarmUp: String
  /** Dataloader settings of the workload's epochs. */
  val Loader: OnlineDatasetConfig
  /** What the epochs' output checks compare against. */
  protected var expected: Expected = _

  /** A built corpus: the registry over its files, the persisted training
    * set, and the model and parser its epochs train with.
    */
  final class Corpus(val dir: Path, val registry: SampleRegistry, val set: TrainingSet,
                     val files: IndexedSeq[IngestFile], val model: Model, val parser: BytesParser)
      extends AutoCloseable {
    override def close(): Unit = { registry.close(); Workload.deleteTree(dir) }
  }

  /** Compute `expected` and other check data (not timed). */
  protected def prepareChecks(a: Args): Unit
  protected def build(dir: Path, a: Args): Corpus
  protected def warmUp(c: Corpus, a: Args, tally: Tally): Unit
  protected def measure(c: Corpus, a: Args, tally: Tally): (Map[String, Double], Map[String, Any])
  protected def traced(c: Corpus, a: Args, tally: Tally): (Map[String, Double], Seq[Tracer])

  final def run(a: Args): Outcome = {
    val tally = new Tally
    prepareChecks(a)
    val builds = (0 until SetupRounds).map(i => Stats.timeNs(build(a.workDir.resolve(s"corpus$i"), a)))
    builds.init.foreach(_._1.close())
    val corpus = builds.last._1
    try {
      Workload.flushToDisk()
      val warmNs = Stats.timeNs(warmUp(corpus, a, tally))._2
      Workload.flushToDisk()
      val buildNs = builds.map(_._2.toDouble)
      val setup = Map[String, Any]("corpus_builds_s" -> buildNs.map(_ / 1e9), "warm_up" -> WarmUp,
        "warm_up_s" -> warmNs / 1e9)
      if (a.trace) {
        val (metrics, tracers) = traced(corpus, a, tally)
        Outcome(tally, metrics, setup, tracers)
      } else {
        val before = JvmCounters.read()
        val (metrics, context) = measure(corpus, a, tally)
        val jvm = JvmCounters.read() - before
        val setupS = (Stats.median(buildNs) + warmNs) / 1e9
        Outcome(tally, metrics + ("setup_s" -> setupS), setup ++ context ++ Map(
          "jvm_timed_region" -> Map("gc_count" -> jvm.gcCount, "gc_pause_ms" -> jvm.gcPauseMs,
            "alloc_bytes" -> jvm.allocBytes, "threads_started" -> jvm.threadsStarted)), Nil)
      }
    } finally corpus.close()
  }

  /** One checked epoch over the corpus' training set; traced through
    * every decorated layer when `t` is given.
    */
  protected final def epoch(c: Corpus, t: Option[Tracer] = None): EpochStats = t match {
    case None => DataPath.epoch(new TssSource(c.set.tts(fs)), c.set.storage(fs), c.parser, c.model, Loader, expected)
    case Some(tr) =>
      DataPath.epoch(new TracedSource(new TssSource(c.set.tts(new TracedFs(fs, tr, "tss"))), tr),
        c.set.storage(new TracedFs(fs, tr, "data")), new TracedParser(c.parser, tr),
        new TracedModel(c.model, tr), Loader, expected, Some(tr))
  }

  /** `n` untraced epochs (with JMX counters), `n` traced ones, and the
    * storage probe: the data-path part of a traced run.
    */
  protected final def tracedEpochs(c: Corpus, n: Int, tally: Tally): (Map[String, Double], Tracer) = {
    val before = JvmCounters.read()
    val untraced = DataPath.epochs(n, tally, epoch(c))
    val jvm = JvmCounters.read() - before
    val t = new Tracer("epochs")
    val traced = DataPath.epochs(n, tally, epoch(c, Some(t)))
    (DataPath.layerMetrics(t, traced, untraced, jvm) ++ DataPath.storageProbe(c.set, Loader), t)
  }

  private var pipelineSeq = 0
  /** A fresh working directory for one pipeline run. */
  protected final def pipelineDir(c: Corpus): String = { pipelineSeq += 1; s"${c.dir}/pipeline$pipelineSeq" }

  /** Run `body` repeatedly until `endNs`, at least `min` times. */
  protected final def until[T](endNs: Long, min: Int)(body: => T): Seq[T] = {
    val out = Seq.newBuilder[T]
    var n = 0
    while (n < min || System.nanoTime() < endNs) { out += body; n += 1 }
    out.result()
  }

  /** Ingest `files` (path, samples in it, in-file timestamps) into a fresh
    * registry, one operation per file, and check that sampled keys resolve
    * to the file and position they were ingested from. Returns samples and
    * wall time per file.
    */
  protected final def ingest(files: IndexedSeq[IngestFile], wrapper: FileWrapperType, tally: Tally,
                             t: Option[Tracer] = None): Seq[(Int, Long)] = {
    val registry = new SampleRegistry
    try {
      var failedFiles = Set.empty[Int]
      val times = files.indices.map { i =>
        val f = files(i)
        val start = System.nanoTime()
        try t match {
          case Some(tr) => tr.span("storage.ingestFile", f.path)(registry.ingestFile(fs, f.path, wrapper, f.timestamp))
          case None     => registry.ingestFile(fs, f.path, wrapper, f.timestamp)
        } catch { case e: Exception => failedFiles += i; System.err.println(s"ingest of ${f.path} threw $e") }
        (f.samples, System.nanoTime() - start)
      }
      // Key k is sample k - firstKey(f) of the file f it falls in.
      val firstKey = files.scanLeft(1L)(_ + _.samples)
      def fileOf(k: Long): Int = java.util.Arrays.binarySearch(firstKey.toArray, k) match {
        case i if i >= 0 => i
        case i           => -i - 2
      }
      val numKeys = files.map(_.samples).sum
      val bad = IngestCheck.resolve(registry, numKeys, math.max(1, numKeys / 500),
        k => files(fileOf(k)).path, k => (k - firstKey(fileOf(k))).toInt)
      failedFiles ++= bad.map(fileOf)
      tally.count("ingest", files.size, failedFiles.size, s"${bad.size} sampled keys resolved wrongly")
      times
    } finally registry.close()
  }
}

/** A file to ingest: its path, its number of samples, and the timestamp of
  * its i-th sample.
  */
final case class IngestFile(path: String, samples: Int, timestamp: Int => Long)

/** Criteo-lite: a 300 k-sample trigger training set read through the
  * whole data path, a DLRM-lite pipeline over the same corpus, and ingest
  * of its binary files.
  */
final class CriteoWorkload(partitionSize: Int) extends Workload {
  val TrainSamples = 300000
  val HeldOut = 20000
  val SamplesPerFile = 1800
  val HashDim = 128
  val WarmEpochs = 6
  val WarmUp = s"$WarmEpochs epochs, 2 pipelines, 1 ingest round"
  val SetupRounds = 3
  val DataSeed = 42L
  val Loader = OnlineDatasetConfig(numWorkers = 2, batchSize = 2048, prefetchedPartitions = 1,
    parallelPrefetchRequests = 1, storageThreads = 1)

  private val evalSets = Seq(EvalSet("heldout", (TrainSamples + 1L to TrainSamples + HeldOut.toLong).toArray))

  override protected def build(dir: Path, a: Args): Corpus = {
    val registry = new SampleRegistry
    val metas = CriteoLite.generate(fs, registry, s"$dir/data", TrainSamples + HeldOut, SamplesPerFile, DataSeed)
    require(metas.indices.forall(i => metas(i).key == i + 1L), "keys are not 1..n in ingest order")
    val set = DataPath.persist(registry, fs, s"$dir/tss", TrainSamples, partitionSize, a.seed, sendBufferSize = 2048)
    val files = metas.groupBy(_.fileId).toIndexedSeq.sortBy(_._1).map { case (id, ms) =>
      val first = ms.head.timestampSec
      IngestFile(registry.fileMeta(id).path, ms.size, i => first + i)
    }
    new Corpus(dir, registry, set, files,
      new LogisticRegressionModel(CriteoLite.NumNumeric + HashDim, SgdConfig(lr = 0.1), seed = 1),
      new CriteoBytesParser(HashDim))
  }

  private def pipeline(a: Args) = Pipelines.criteo(a.seed, partitionSize, pointsPerTrigger = 100000)
  private val expectedTrained = Seq.fill(3)(PipelineCheck.btsTrained(100000, partitionSize, 2, 2048, 0.5))

  private def runPipeline(c: Corpus, a: Args, tally: Tally): Option[(PipelineReport, Long)] =
    Workload.checkedPipeline(tally, triggers = 3, checkCriteo)(
      new Supervisor(pipeline(a), c.registry, c.set.storage(fs), fs, pipelineDir(c))
        .runExperiment(replayBatchSize = 10000, evalSets = evalSets, trailingTrigger = false))

  private def checkCriteo(r: PipelineReport) = PipelineCheck.check(r, expectedTrained, Seq("heldout"))

  private def ingestRound(c: Corpus, tally: Tally, t: Option[Tracer] = None): Seq[(Int, Long)] =
    ingest(c.files, FileWrapperType.Binary(CriteoLite.RecordSize), tally, t)

  override protected def prepareChecks(a: Args): Unit =
    expected = Expected.criteo(TrainSamples, DataSeed, a.seed, HashDim)

  override protected def warmUp(c: Corpus, a: Args, tally: Tally): Unit = {
    DataPath.epochs(WarmEpochs, tally, epoch(c))
    (1 to 2).foreach(_ => runPipeline(c, a, tally))
    ingestRound(c, tally)
  }

  /** Rounds of two epochs, one pipeline and one ingest until the time is
    * up, so that a slow stretch of the machine falls on all three alike.
    */
  override protected def measure(c: Corpus, a: Args, tally: Tally): (Map[String, Double], Map[String, Any]) =
    CriteoWorkload.summarize(until(System.nanoTime() + a.seconds * 1000000000L, 3) {
      (DataPath.epochs(2, tally, epoch(c)), runPipeline(c, a, tally), ingestRound(c, tally))
    })

  override protected def traced(c: Corpus, a: Args, tally: Tally): (Map[String, Double], Seq[Tracer]) = {
    val (dataPath, te) = tracedEpochs(c, 6, tally)
    val plain = runPipeline(c, a, tally)
    val tp = new Tracer("pipeline")
    val traced = Workload.checkedPipeline(tally, triggers = 3, checkCriteo)(
      new PipelineDriver(pipeline(a), c.registry, c.set.storage(new TracedFs(fs, tp, "data")),
        new TracedFs(fs, tp, "sel"), new TracedFs(fs, tp, "model", readSpans = true), pipelineDir(c), tp)
        .run(replayBatchSize = 10000, evalSets = evalSets, trailingTrigger = false))
    Workload.sameAccuracy(plain.toSeq.map(_._1), traced.toSeq.map(_._1), tally)
    val ti = new Tracer("ingest")
    ingestRound(c, tally, Some(ti))
    (dataPath ++ Pipelines.layerMetrics(tp, traced.toSeq.map(_._1), plain.map(_._2).getOrElse(0L),
        traced.map(_._2).getOrElse(0L), TrainSamples + HeldOut) ++ Workload.ingestMetrics(ti),
      Seq(te, tp, ti))
  }
}

object CriteoWorkload {
  /** Metrics and context of measured rounds: the epochs, the pipeline and
    * the ingest of each round. Epochs and pipelines that failed their
    * checks are absent; if all are, the metrics are NaN.
    */
  def summarize(rounds: Seq[(Seq[EpochStats], Option[(PipelineReport, Long)], Seq[(Int, Long)])])
      : (Map[String, Double], Map[String, Any]) = {
    val epochs = rounds.flatMap(_._1)
    val pipelines = rounds.flatMap(_._2)
    (Map(
      "train_samples_per_s" -> Stats.median(epochs.map(_.samplesPerS)),
      "pipeline_s" -> Stats.median(pipelines.map(_._2 / 1e9)),
      "ingest_samples_per_s" -> Workload.rate(rounds.flatMap(_._3)),
      "final_accuracy_mean" -> Stats.median(pipelines.map(p => PipelineCheck.finalAccuracy(p._1, Seq("heldout"))))),
     Map("rounds" -> rounds.size, "epoch_rates" -> epochs.map(e => math.round(e.samplesPerS)),
       "pipeline_ms" -> pipelines.map(p => p._2 / 1000000),
       "ingest_rates" -> rounds.map(r => math.round(Workload.rate(r._3))),
       "consumer_wait_share" ->
         (if (epochs.isEmpty) 0.0 else epochs.map(_.waitNs).sum.toDouble / epochs.map(_.ns).sum)))
  }
}

object Workload {
  /** Run one pipeline and count its expected triggers as operations, all
    * failed if it throws or its report fails `check`. Returns the report
    * and the wall time of a run that passed.
    */
  def checkedPipeline(tally: Tally, triggers: Int, check: PipelineReport => Option[String])
                     (body: => PipelineReport): Option[(PipelineReport, Long)] =
    try {
      val (report, ns) = Stats.timeNs(body)
      val problem = check(report)
      tally.count("trigger", triggers, if (problem.isEmpty) 0 else triggers, problem.getOrElse(""))
      if (problem.isEmpty) Some((report, ns)) else None
    } catch {
      case e: Exception =>
        tally.count("trigger", triggers, triggers, s"pipeline threw $e")
        None
    }

  /** Traced replays must reach exactly the supervisor's accuracies. */
  def sameAccuracy(plain: Seq[PipelineReport], traced: Seq[PipelineReport], tally: Tally): Unit =
    tally.count("traced replay", 1,
      if (plain.size == traced.size && plain.zip(traced).forall(p => p._1.accuracyMatrix == p._2.accuracyMatrix)) 0 else 1,
      "traced pipeline replay diverged from the supervisor's")

  /** Samples per second over all of `files` (samples, ns each). */
  def rate(files: Seq[(Int, Long)]): Double = files.map(_._1).sum * 1e9 / files.map(_._2).sum

  def ingestMetrics(t: Tracer): Map[String, Double] = {
    val ms = t.spans("storage.ingestFile").map(_.durNs / 1e6)
    Map("storage.ingest_file_ms" -> ms.sum / ms.size)
  }

  /** Write dirty pages out before timing (untimed), so that the kernel's
    * background writeback of set-up files does not compete with measured
    * work.
    */
  def flushToDisk(): Unit = new ProcessBuilder("sync").inheritIO().start().waitFor()

  def deleteTree(dir: Path): Unit = if (Files.exists(dir)) {
    val paths = Files.walk(dir)
    try paths.sorted(java.util.Comparator.reverseOrder()).forEach(p => Files.delete(p))
    finally paths.close()
  }
}

object Workloads {
  def byName(name: String): Workload = name match {
    case "criteo-bigpart"   => new CriteoWorkload(partitionSize = 75000)
    case "criteo-smallpart" => new CriteoWorkload(partitionSize = 3000)
    case "cloc-pipeline"    => new ClocWorkload
    case other => throw new IllegalArgumentException(s"unknown workload '$other'")
  }
}
