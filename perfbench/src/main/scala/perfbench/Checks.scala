package perfbench

import java.nio.{ByteBuffer, ByteOrder}
import scala.collection.mutable.ArrayBuffer
import repro.core.PipelineReport
import repro.datagen.{ClocLite, CriteoLite}
import repro.storage.{SampleRegistry, SampleMeta}
import repro.trainer.TrainBatch
import repro.util.Rng

/** Operations attempted and failed in the timed region. A failed output
  * check counts as a failed operation, as does an operation that throws.
  */
final class Tally {
  var attempted = 0L
  var failed = 0L
  private var shown = 0

  /** Run one operation; returns its value, or None if it threw or its
    * check (the returned message) reported a problem.
    */
  def op[T](what: String)(body: => (T, Option[String])): Option[T] = {
    attempted += 1
    val outcome =
      try body
      catch { case e: Throwable => (null.asInstanceOf[T], Some(s"threw $e")) }
    outcome match {
      case (v, None) => Some(v)
      case (_, Some(msg)) =>
        fail(what, msg)
        None
    }
  }

  /** Count `n` operations, of which `bad` failed. */
  def count(what: String, n: Long, bad: Long, msg: => String): Unit = {
    attempted += n
    if (bad > 0) fail(what, s"$bad of $n: $msg", bad)
  }

  private def fail(what: String, msg: String, n: Long = 1): Unit = {
    failed += n
    if (shown < 10) { System.err.println(s"FAILED $what: $msg"); shown += 1 }
  }
}

/** What one training-set sample must look like when the data path yields
  * it, computed from the generators, not read back through the program.
  */
abstract class Expected(val runSeed: Long, labels: Array[Int]) {
  /** Keys are 1..numKeys, in ingest order. */
  def numKeys: Int = labels.length - 1
  def label(key: Long): Int = labels(key.toInt)
  /** The TSS weight the run gave `key`. */
  def weight(key: Long): Double = Expected.tssWeight(key, runSeed)
  private val sampleOffset = Math.floorMod(Rng.mix2(runSeed, 0x5A3D1EL), 97L)
  /** Keys whose feature checksum the check compares: one in 97, cheap to
    * test inside a timed epoch.
    */
  def sampled(key: Long): Boolean = (key + sampleOffset) % 97 == 0
  def featureChecksum(key: Long): Double
}

object Expected {
  /** Order-sensitive checksum of a feature vector. */
  def checksum(x: Array[Float]): Double = {
    var s = 0.0
    var i = 0
    while (i < x.length) { s += x(i).toDouble * (i + 1); i += 1 }
    s
  }

  /** Independent parse of a CriteoLite record: log1p of the 13 numeric
    * fields, then the 26 categorical ids hashed into `hashDim` counts.
    */
  def criteoFeatures(record: Array[Byte], hashDim: Int): Array[Float] = {
    val bb = ByteBuffer.wrap(record).order(ByteOrder.LITTLE_ENDIAN)
    val x  = new Array[Float](CriteoLite.NumNumeric + hashDim)
    for (f <- 0 until CriteoLite.NumNumeric) x(f) = math.log1p(bb.getFloat(4 + 4 * f).toDouble).toFloat
    for (c <- 0 until CriteoLite.NumCategorical) {
      val id = bb.getInt(4 + 4 * CriteoLite.NumNumeric + 4 * c)
      x(CriteoLite.NumNumeric + Math.floorMod(Rng.mix2(c.toLong, id.toLong), hashDim.toLong).toInt) += 1f
    }
    x
  }

  /** Training weight the benchmark gives `key` in the TSS. */
  def tssWeight(key: Long, seed: Long): Double = 0.5 + (Rng.mix2(key, seed ^ 0x7EB5L) >>> 11) % 1000 / 1000.0

  def criteo(n: Int, dataSeed: Long, runSeed: Long, hashDim: Int): Expected =
    new Expected(runSeed, Array.tabulate(n + 1)(k =>
      if (k == 0) -1 else ByteBuffer.wrap(CriteoLite.record(k.toLong, dataSeed)).order(ByteOrder.LITTLE_ENDIAN).getInt(0))) {
      override def featureChecksum(key: Long): Double =
        checksum(criteoFeatures(CriteoLite.record(key, dataSeed), hashDim))
    }

  /** CLOC-lite keys run year by year, `perYear` samples each. */
  def cloc(perYear: Int, numClasses: Int, dim: Int, dataSeed: Long, runSeed: Long): Expected = {
    def yearIdx(key: Long): (Int, Int) =
      (ClocLite.FirstYear + ((key - 1) / perYear).toInt, ((key - 1) % perYear).toInt)
    val labels = Array.tabulate(perYear * ClocLite.Years.size + 1) { k =>
      if (k == 0) -1 else { val (y, i) = yearIdx(k.toLong); ClocLite.drawClass(numClasses, y, i, dataSeed) }
    }
    new Expected(runSeed, labels) {
      override def featureChecksum(key: Long): Double = {
        val (y, i) = yearIdx(key)
        val bb = ByteBuffer.wrap(ClocLite.payload(label(key), y, i, dim, dataSeed)).order(ByteOrder.LITTLE_ENDIAN)
        checksum(Array.tabulate(dim)(f => bb.getFloat(4 * f)))
      }
    }
  }
}

/** Checks that one epoch yields every key exactly once, with its TSS
  * weight, its generated label and (for sampled keys) its features.
  * `record` runs inside the timed epoch and only keeps references;
  * `problem` does the checking after the epoch's clock has stopped.
  */
final class EpochCheck(exp: Expected) {
  private val batches = ArrayBuffer.empty[(Array[Long], Array[Int], Array[Double])]
  private val sampledRows = ArrayBuffer.empty[(Long, Array[Float])]

  def record(b: TrainBatch): Unit = {
    batches += ((b.keys, b.labels, b.weights))
    var i = 0
    while (i < b.size) {
      if (exp.sampled(b.keys(i))) sampledRows += ((b.keys(i), b.features(i)))
      i += 1
    }
  }

  def problem: Option[String] = {
    val seen = new java.util.BitSet(exp.numKeys + 1)
    var unknown, dupes, badLabel, badWeight = 0L
    for ((keys, labels, weights) <- batches; i <- keys.indices) {
      val k = keys(i)
      if (k < 1 || k > exp.numKeys) unknown += 1
      else {
        if (seen.get(k.toInt)) dupes += 1 else seen.set(k.toInt)
        if (labels(i) != exp.label(k)) badLabel += 1
        if (weights(i) != exp.weight(k)) badWeight += 1
      }
    }
    val badFeatures = sampledRows.count { case (k, x) =>
      k >= 1 && k <= exp.numKeys && math.abs(Expected.checksum(x) - exp.featureChecksum(k)) > 1e-6
    }
    val missing = exp.numKeys - seen.cardinality()
    val parts = Seq("missing" -> missing.toLong, "unknown" -> unknown, "duplicate" -> dupes,
      "wrong label" -> badLabel, "wrong weight" -> badWeight, "wrong features" -> badFeatures.toLong)
      .collect { case (what, n) if n > 0 => s"$n $what" }
    if (parts.isEmpty) None else Some(parts.mkString(", ") + " keys")
  }
}

object PipelineCheck {
  /** Samples per trigger under a time trigger of `interval` seconds over
    * timestamps `ts` (in replay order), with a trailing trigger: a trigger
    * fires on the first sample at or past the boundary and includes it.
    */
  def timeTriggerSizes(ts: Seq[Long], interval: Long): Seq[Int] = {
    val sizes = Seq.newBuilder[Int]
    var boundary = ts.head + interval
    var since = 0
    ts.zipWithIndex.foreach { case (t, i) =>
      since += 1
      if (i > 0 && t >= boundary) {
        sizes += since
        since = 0
        boundary += ((t - boundary) / interval + 1) * interval
      }
    }
    if (since > 0) sizes += since
    sizes.result()
  }

  /** Samples batch-then-sample trains on for one epoch over `n` keys cut
    * into `partitionSize` partitions and `workers` worker shares, with
    * batches of `batchSize` taken from one worker at a time.
    */
  def btsTrained(n: Int, partitionSize: Int, workers: Int, batchSize: Int, ratio: Double): Long = {
    val perWorker = Array.fill(workers)(0L)
    (0 until n by partitionSize).foreach { start =>
      val size = math.min(partitionSize, n - start)
      (0 until workers).foreach(w => perWorker(w) += (w + 1).toLong * size / workers - w.toLong * size / workers)
    }
    def drawn(b: Long): Long = math.max(1L, math.ceil(ratio * b).toLong)
    perWorker.map { total =>
      val full = total / batchSize
      full * drawn(batchSize) + (if (total % batchSize > 0) drawn(total % batchSize) else 0L)
    }.sum
  }

  /** Compare a pipeline report with the expected samples trained per
    * trigger and a complete accuracy matrix over `evalSets`.
    */
  def check(report: PipelineReport, expectedTrained: Seq[Long], evalSets: Seq[String]): Option[String] = {
    val got = report.triggers.map(_.training.samplesTrainedOn)
    val matrix = report.accuracyMatrix
    val cells = for (t <- report.triggers; s <- evalSets) yield matrix.get((t.triggerId, s))
    if (got != expectedTrained)
      Some(s"${report.pipelineName}: trained ${got.mkString(",")} but expected ${expectedTrained.mkString(",")}")
    else if (!cells.forall(_.exists(a => a >= 0 && a <= 1)))
      Some(s"${report.pipelineName}: accuracy matrix has ${cells.count(_.isEmpty)} of ${cells.size} cells missing")
    else None
  }

  /** Mean accuracy of the last trigger's model over `evalSets`. */
  def finalAccuracy(report: PipelineReport, evalSets: Seq[String]): Double = {
    val last = report.triggers.last.triggerId
    evalSets.map(s => report.accuracyMatrix((last, s))).sum / evalSets.size
  }
}

object IngestCheck {
  /** Resolve every `stride`-th key through `registry` and compare file and
    * position with `expectedPath(key)` / `expectedIndex(key)`. Returns the
    * keys that resolved wrongly or not at all.
    */
  def resolve(registry: SampleRegistry, numKeys: Int, stride: Int,
              expectedPath: Long => String, expectedIndex: Long => Int): Seq[Long] = {
    val keys = (1L to numKeys.toLong by stride.toLong).toArray
    val conn = registry.duplicateConnection()
    val metas: Array[SampleMeta] =
      try registry.lookup(conn, keys) finally conn.close()
    val byKey = metas.map(m => m.key -> m).toMap
    keys.toSeq.filter { k =>
      byKey.get(k).forall(m => registry.fileMeta(m.fileId).path != expectedPath(k) || m.indexInFile != expectedIndex(k))
    }
  }
}
