package perfbench

import java.nio.file.Path
import repro.core.{EvalSet, PipelineReport, Supervisor}
import repro.datagen.ClocLite
import repro.storage._
import repro.trainer._

/** CLOC-lite: the three §5.2 pipelines replayed over one shared corpus,
  * and ingest of all its single-sample files after them. The traced run
  * also reads the whole corpus as one training set, for the data-path
  * layers.
  */
final class ClocWorkload extends Workload {
  val PerYear = 600
  val NumClasses = 48
  val Dim = 64
  val YearSec = 31536000L
  val NumSamples: Int = PerYear * ClocLite.Years.size
  val SetupRounds = 2
  val DataSeed = 7L
  /** Files ingested in the warm-up. */
  val WarmIngest = 300
  val WarmUp = s"3 epochs, 1 set of the 3 pipelines, ingest of $WarmIngest files"
  val Loader = OnlineDatasetConfig(numWorkers = 2, batchSize = 256, prefetchedPartitions = 2,
    parallelPrefetchRequests = 1, storageThreads = 1)

  private var evalSets: Seq[EvalSet] = _
  private var expectedTrained: Map[String, Seq[Long]] = _

  /** Sample `i` of `year` is stamped `i * (year / PerYear)` into its year. */
  private def timestamp(key: Long): Long = {
    val year = ClocLite.FirstYear + ((key - 1) / PerYear).toInt
    ClocLite.yearStartSec(year) + ((key - 1) % PerYear) * (YearSec / PerYear)
  }

  override protected def prepareChecks(a: Args): Unit = {
    expected = Expected.cloc(PerYear, NumClasses, Dim, DataSeed, a.seed)
    evalSets = ClocLite.Years.zipWithIndex.map { case (year, y) =>
      EvalSet(year.toString, Array.tabulate(PerYear)(i => y.toLong * PerYear + i + 1))
    }
    val sizes = PipelineCheck.timeTriggerSizes((1L to NumSamples.toLong).map(timestamp), YearSec)
    expectedTrained = Pipelines.ClocKinds.map(k => k -> Pipelines.clocExpectedTrained(k, sizes)).toMap
  }

  override protected def build(dir: Path, a: Args): Corpus = {
    val registry = new SampleRegistry
    val metas = ClocLite.generate(fs, registry, s"$dir/data", PerYear, NumClasses, Dim, DataSeed)
    require(metas.indices.forall(i => metas(i).key == i + 1L), "keys are not 1..n in ingest order")
    val set = DataPath.persist(registry, fs, s"$dir/tss", NumSamples, 2000, a.seed, sendBufferSize = 512)
    val files = metas.map(m => IngestFile(registry.fileMeta(m.fileId).path, 1, _ => m.timestampSec))
    new Corpus(dir, registry, set, files,
      new SoftmaxRegressionModel(Dim, NumClasses, SgdConfig(lr = 0.025, momentum = 0.9, weightDecay = 1e-4), seed = 1),
      new ClocBytesParser(Dim))
  }

  private def checkCloc(kind: String)(r: PipelineReport) =
    PipelineCheck.check(r, expectedTrained(kind), evalSets.map(_.name))

  /** The three pipelines, one after another, each through `run`. Returns
    * the reports of those that passed their checks, and the set's wall time.
    */
  private def pipelineSet(tally: Tally)(run: String => PipelineReport): (Seq[PipelineReport], Long) = {
    val (reports, ns) = Stats.timeNs(Pipelines.ClocKinds.map { kind =>
      Workload.checkedPipeline(tally, expectedTrained(kind).size, checkCloc(kind))(run(kind)).map(_._1)
    })
    (reports.flatten, ns)
  }

  private def supervised(c: Corpus, a: Args)(kind: String): PipelineReport =
    new Supervisor(Pipelines.cloc(kind, a.seed, NumClasses, Dim), c.registry,
      new StorageService(c.registry, fs, sendBufferSize = 512), fs, pipelineDir(c))
      .runExperiment(replayBatchSize = 500, evalSets = evalSets, trailingTrigger = true)

  override protected def warmUp(c: Corpus, a: Args, tally: Tally): Unit = {
    DataPath.epochs(3, tally, epoch(c))
    pipelineSet(tally)(supervised(c, a))
    ingest(c.files.take(WarmIngest), FileWrapperType.SingleSample, tally)
  }

  /** Rounds of the three pipelines followed by the ingest of the whole
    * corpus into one fresh registry, until the time is up. Ingest speed on
    * this path flipped between about 1.4 k and 2.7 k files/s within one run
    * on a 4-core VM, so it is reported as one aggregate rate over every
    * round.
    */
  override protected def measure(c: Corpus, a: Args, tally: Tally): (Map[String, Double], Map[String, Any]) = {
    val rounds = until(System.nanoTime() + a.seconds * 1000000000L, 2) {
      val reports = Pipelines.ClocKinds.map { kind =>
        Workload.checkedPipeline(tally, expectedTrained(kind).size, checkCloc(kind))(supervised(c, a)(kind))
      }
      (reports, ingest(c.files, FileWrapperType.SingleSample, tally))
    }
    val sets = rounds.map(_._1.flatten).filter(_.size == Pipelines.ClocKinds.size)
    val trainRates = sets.map { set =>
      val runs = set.flatMap(_._1.triggers.map(_.training))
      runs.map(_.samplesTrainedOn).sum * 1e3 / runs.map(_.wallClockMs).sum
    }
    val accuracy = sets.map(set => set.map(p => PipelineCheck.finalAccuracy(p._1, evalSets.map(_.name))).sum / set.size)
    (Map(
      "train_samples_per_s" -> Stats.median(trainRates),
      "pipeline_s" -> Stats.median(sets.map(_.map(_._2).sum / 1e9)),
      "ingest_samples_per_s" -> Workload.rate(rounds.flatMap(_._2)),
      "final_accuracy_mean" -> Stats.median(accuracy)),
     Map("rounds" -> rounds.size, "pipeline_set_ms" -> sets.map(_.map(_._2).sum / 1000000),
       "ingest_rates" -> rounds.map(r => math.round(Workload.rate(r._2))),
       "train_rates" -> trainRates.map(math.round)))
  }

  override protected def traced(c: Corpus, a: Args, tally: Tally): (Map[String, Double], Seq[Tracer]) = {
    val (plain, plainNs) = pipelineSet(tally)(supervised(c, a))
    val tp = new Tracer("pipeline")
    val (traced, tracedNs) = pipelineSet(tally) { kind =>
      new PipelineDriver(Pipelines.cloc(kind, a.seed, NumClasses, Dim), c.registry,
        new StorageService(c.registry, new TracedFs(fs, tp, "data"), sendBufferSize = 512),
        new TracedFs(fs, tp, "sel"), new TracedFs(fs, tp, "model", readSpans = true), pipelineDir(c), tp)
        .run(replayBatchSize = 500, evalSets = evalSets, trailingTrigger = true)
    }
    Workload.sameAccuracy(plain, traced, tally)
    val (dataPath, te) = tracedEpochs(c, 4, tally)
    val ti = new Tracer("ingest")
    ingest(c.files, FileWrapperType.SingleSample, tally, Some(ti))
    (dataPath ++ Pipelines.layerMetrics(tp, traced, plainNs, tracedNs, NumSamples.toLong * traced.size) ++
      Workload.ingestMetrics(ti),
      Seq(tp, te, ti))
  }
}
