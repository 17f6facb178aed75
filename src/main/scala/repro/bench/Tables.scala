package repro.bench

import repro.selector.{DuckDbBackend, LocalBinaryBackend}
import repro.storage.SampleColumns
import repro.trainer._

/** Generates the reproduction's evaluation tables (T1–T3, T6). Each method
  * runs the experiment and returns the formatted table plus the raw cells,
  * so the `bench/` suites can both print and shape-check, and the `jobs/`
  * entrypoints can regenerate a single table standalone.
  */
object Tables {

  // ---------------------------------------------------------------- T1
  /** Cell key: (partitionSize, storageThreads, workers, prefetchedParts,
    * parallelPrefetch) -> kOps/s.
    */
  type T1Results = Map[(Int, Int, Int, Int, Int), Double]

  final case class T1Config(numSamples: Int = 300000, batchSize: Int = 2048,
                            smallPartition: Int = 3000, largePartition: Int = 75000,
                            workerCounts: Seq[Int] = Seq(1, 4, 8, 16),
                            prefetchConfigs: Seq[(Int, Int)] = Seq((0, 1), (1, 1), (2, 1), (6, 1), (2, 2)),
                            storageThreads: Seq[Int] = Seq(1, 2, 8))

  /** T1 (paper Fig. 7): Criteo-lite throughput grid. */
  def t1(dir: String, cfg: T1Config = T1Config()): (String, T1Results) = {
    val sb = new StringBuilder
    val corpus = Harness.criteoCorpus(dir, cfg.numSamples, samplesPerFile = 1800,
      partitionSizes = Seq(cfg.smallPartition, cfg.largePartition))
    val parser  = new CriteoBytesParser(128)
    val results = Map.newBuilder[(Int, Int, Int, Int, Int), Double]

    // Untimed warmup pass so JIT compilation does not penalize the first
    // measured cell (the paper averages three repetitions instead).
    Harness.modynThroughput(corpus, cfg.smallPartition,
      OnlineDatasetConfig(4, cfg.batchSize, 1, 1, 1), parser,
      IdentityTransform, Harness.criteoModel(128))

    sb ++= "== T1 (Fig. 7): Criteo-lite training throughput, kOps/s ==\n"
    sb ++= "rows: partition size x storage threads; cells: workers / (prefetched partitions/parallel requests)\n"
    val header = cfg.workerCounts.map { w =>
      cfg.prefetchConfigs.map { case (b, p) => f"w$w%d:$b%d/$p%d" }.map(s => f"$s%9s").mkString
    }.mkString(" |")
    sb ++= f"${"part.sz"}%8s ${"thr"}%3s |$header%s\n"

    for (part <- Seq(cfg.smallPartition, cfg.largePartition); st <- cfg.storageThreads) {
      val row = cfg.workerCounts.map { w =>
        cfg.prefetchConfigs.map { case (b, p) =>
          val dcfg = OnlineDatasetConfig(w, cfg.batchSize, b, p, st)
          val t = Harness.modynThroughput(corpus, part, dcfg, parser,
            IdentityTransform, Harness.criteoModel(128))
          results += ((part, st, w, b, p) -> t.kOpsPerSec)
          f"${t.kOpsPerSec}%9.1f"
        }.mkString
      }.mkString(" |")
      sb ++= f"$part%8d $st%3d |$row%s\n"
    }
    corpus.close()
    (sb.toString, results.result())
  }

  // ---------------------------------------------------------------- T2
  /** workers -> (best modyn kOps/s, best local kOps/s). */
  type T2Results = Map[Int, (Double, Double)]

  /** T2 (paper Fig. 8a): best Modyn configuration vs the local sequential
    * baseline on Criteo-lite, per worker count.
    */
  def t2(dir: String, numSamples: Int = 300000, batchSize: Int = 2048,
         workerCounts: Seq[Int] = Seq(1, 4, 8, 16)): (String, T2Results) = {
    val largePart = 75000
    val corpus = Harness.criteoCorpus(dir, numSamples, samplesPerFile = 1800,
      partitionSizes = Seq(3000, largePart))
    val parser = new CriteoBytesParser(128)
    // Untimed warmups of both code paths (JIT).
    Harness.modynThroughput(corpus, largePart, OnlineDatasetConfig(4, batchSize, 1, 1, 1),
      parser, IdentityTransform, Harness.criteoModel(128))
    Harness.localThroughput(corpus, 4, batchSize, parser, IdentityTransform,
      Harness.criteoModel(128))
    val sb     = new StringBuilder
    sb ++= "== T2 (Fig. 8a): best Modyn vs local sequential baseline, Criteo-lite ==\n"
    sb ++= f"${"workers"}%8s ${"modyn kOps/s"}%14s ${"local kOps/s"}%14s ${"modyn/local"}%12s\n"
    val results = workerCounts.map { w =>
      // Best-config search mirrors §5.1.1's takeaways: large partitions,
      // prefetching on, 1-2 storage threads.
      val candidates = for {
        (b, p) <- Seq((1, 1), (2, 1))
        st     <- Seq(1, 2)
        part   <- Seq(3000, largePart)
      } yield Harness.modynThroughput(corpus, part,
        OnlineDatasetConfig(w, batchSize, b, p, st), parser,
        IdentityTransform, Harness.criteoModel(128)).kOpsPerSec
      val best  = candidates.max
      // The best of as many local runs as Modyn had candidates, so that
      // run-to-run noise favours neither side of the ratio.
      val local = candidates.indices.map(_ => Harness.localThroughput(corpus, w, batchSize,
        parser, IdentityTransform, Harness.criteoModel(128)).kOpsPerSec).max
      sb ++= f"$w%8d $best%14.1f $local%14.1f ${best / local * 100}%11.1f%%\n"
      w -> (best, local)
    }.toMap
    corpus.close()
    (sb.toString, results)
  }

  // ---------------------------------------------------------------- T3
  /** workers -> (modyn samples/s, local samples/s). */
  type T3Results = Map[Int, (Double, Double)]

  /** T3 (paper Fig. 8b): CLOC-lite throughput vs local — the compute-bound
    * workload whose throughput stagnates once enough workers feed the
    * (simulated) GPU.
    */
  def t3(dir: String, samplesPerYear: Int = 2000, numClasses: Int = 96,
         featureDim: Int = 64, batchSize: Int = 256, augmentCost: Int = 15000,
         workerCounts: Seq[Int] = Seq(1, 2, 4, 8, 16)): (String, T3Results) = {
    val corpus = Harness.clocCorpus(dir, samplesPerYear, numClasses, featureDim,
      partitionSize = 2000, years = 2004 to 2011)
    val parser    = new ClocBytesParser(featureDim)
    val transform = new SimulatedAugmentTransform(augmentCost)
    // Untimed warmup (JIT).
    Harness.modynThroughput(corpus, 2000, OnlineDatasetConfig(4, batchSize, 1, 1, 1),
      parser, transform, Harness.clocModel(featureDim, numClasses))
    val sb        = new StringBuilder
    sb ++= "== T3 (Fig. 8b): Modyn vs local, CLOC-lite (compute-bound) ==\n"
    sb ++= f"${"workers"}%8s ${"modyn smp/s"}%13s ${"local smp/s"}%13s ${"modyn/local"}%12s\n"
    val results = workerCounts.map { w =>
      val cfg = OnlineDatasetConfig(w, batchSize, prefetchedPartitions = 1,
        parallelPrefetchRequests = 1, storageThreads = 1)
      val m = Harness.modynThroughput(corpus, 2000, cfg, parser, transform,
        Harness.clocModel(featureDim, numClasses))
      val l = Harness.localThroughput(corpus, w, batchSize, parser, transform,
        Harness.clocModel(featureDim, numClasses))
      val mS = m.kOpsPerSec * 1000; val lS = l.kOpsPerSec * 1000
      sb ++= f"$w%8d $mS%13.0f $lS%13.0f ${mS / lS * 100}%11.1f%%\n"
      w -> (mS, lS)
    }.toMap
    corpus.close()
    (sb.toString, results)
  }

  // ---------------------------------------------------------------- T6
  /** backend name -> insertions/second. */
  type T6Results = Map[String, Double]

  /** T6 (§4.1.2): metadata backend ingestion throughput — the SQL backend
    * (Postgres in the paper, ~100 k ins/s) vs the binary local backend.
    */
  def t6(dir: String, numSamples: Int = 400000, batchSize: Int = 20000): (String, T6Results) = {
    val keys    = Array.tabulate(numSamples)(_.toLong)
    val samples = SampleColumns(keys, keys.map(_ % 1000), keys)
    val sb = new StringBuilder
    sb ++= "== T6 (§4.1.2): selector metadata backend insertion throughput ==\n"
    sb ++= f"${"backend"}%10s ${"insertions/s"}%14s\n"
    val backends = Seq(
      "database" -> (() => new DuckDbBackend),
      "local"    -> (() => new LocalBinaryBackend(Harness.fs, s"$dir/local_${System.nanoTime()}")))
    val results = backends.map { case (name, mk) =>
      val b = mk()
      val start = System.nanoTime()
      (0 until numSamples by batchSize).foreach { from =>
        b.persist(from / 100000, samples.slice(from, math.min(numSamples, from + batchSize)))
      }
      val rate = numSamples.toDouble / ((System.nanoTime() - start) / 1e9)
      b.close()
      sb ++= f"$name%10s $rate%14.0f\n"
      name -> rate
    }.toMap
    (sb.toString, results)
  }

  // ---------------------------------------------------------------- T7
  /** policy -> lines of policy-logic code. */
  type T7Results = Map[String, Int]

  /** T7 (§5.2 "complexity of implementation"): lines of code of the three
    * pipeline policies in this repo, counted from the sources (non-blank,
    * non-comment lines of the class bodies).
    */
  def t7(repoRoot: String): (String, T7Results) = {
    /** Non-blank, non-comment LOC of the top-level definition starting at
      * the line containing `marker`, up to its top-level closing brace.
      */
    def loc(relPath: String, marker: String): Int = {
      val path = Seq(s"$repoRoot/$relPath", relPath, s"../$relPath")
        .find(p => new java.io.File(p).exists())
        .getOrElse(throw new java.io.FileNotFoundException(relPath))
      val src   = scala.io.Source.fromFile(path, "UTF-8")
      val lines = try src.getLines().toIndexedSeq finally src.close()
      val start = lines.indexWhere(_.contains(marker))
      require(start >= 0, s"'$marker' not found in $relPath")
      val end = lines.indexWhere(_ == "}", start + 1)
      require(end > start, s"unterminated definition for '$marker' in $relPath")
      lines.slice(start, end + 1)
        .map(_.trim)
        .count(l => l.nonEmpty && !l.startsWith("//") && !l.startsWith("*") &&
                    !l.startsWith("/*"))
    }
    val strategies  = "src/main/scala/repro/selector/Strategies.scala"
    val downsampler = "src/main/scala/repro/trainer/Downsampler.scala"
    val results = Map(
      "NewDataStrategy (pipeline 1)"       -> loc(strategies, "final class NewDataStrategy"),
      "UniformRandomStrategy (pipeline 2)" -> loc(strategies, "final class UniformRandomStrategy"),
      // The §5.2 pipeline-3 count covers the policy plus its CE-optimized
      // variant and the sampling machinery it needs.
      "GradNorm downsampler (pipeline 3)" ->
        (loc(downsampler, "final class GradNormDownsampler") +
         loc(downsampler, "object DownsamplingDriver")))
    val sb = new StringBuilder
    sb ++= "== T7 (§5.2): policy implementation complexity (LOC in this repo) ==\n"
    results.toSeq.sortBy(_._2).foreach { case (k, v) => sb ++= f"$v%5d  $k%s\n" }
    (sb.toString, results)
  }
}
