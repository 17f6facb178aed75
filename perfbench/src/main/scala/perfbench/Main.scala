package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._

/** Runs one workload and prints, as the last line of standard output, a
  * JSON object with `correct`, `attempted`, `failed`, `metrics` (name to
  * plain value) and `context`. `perfbench/run.py` attaches units, checks
  * the metric names against BENCHMARK.json, and prints the final result.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --work-dir <dir> [--trace-file <path>]
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val args = Args(opt("workload"), opt("seed").toLong, opt("seconds").toInt, opt("trace") == "1",
      Paths.get(opt("work-dir")))
    val workload = Workloads.byName(args.workload)
    Workload.deleteTree(args.workDir)
    Files.createDirectories(args.workDir)
    val outcome = try workload.run(args) finally Workload.deleteTree(args.workDir)
    opts.get("trace-file").foreach(p => Tracer.write(Paths.get(p), outcome.tracers))

    println(resultLine(outcome, args))
    System.out.flush()
    // Data-path threads are daemons; do not wait for the JVM to reap them.
    System.exit(0)
  }

  /** The run's JSON line. A metric that is not finite (every operation it
    * is measured on failed) is printed as 0 and makes the run incorrect.
    */
  def resultLine(outcome: Outcome, args: Args): String = {
    val finite = outcome.metrics.forall { case (_, v) => !v.isNaN && !v.isInfinite }
    val runtime = ManagementFactory.getRuntimeMXBean
    val context = outcome.context ++ Map(
      "workload" -> args.workload, "seed" -> args.seed, "seconds" -> args.seconds, "trace" -> args.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors, "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "jvm_flags" -> runtime.getInputArguments.asScala.toSeq)
    Json.render(Map(
      "correct" -> (finite && outcome.tally.failed == 0),
      "attempted" -> outcome.tally.attempted,
      "failed" -> outcome.tally.failed,
      "metrics" -> outcome.metrics.map { case (k, v) => k -> (if (v.isNaN || v.isInfinite) 0.0 else v) },
      "context" -> context))
  }
}
