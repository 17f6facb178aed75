package repro.evaluator

import repro.trainer.Model
import repro.util.Parallel

/** A metric computed incrementally, one prediction at a time, without
  * storing forward-pass results (§4.3).
  */
trait DecomposableMetric {
  def name: String
  def observe(predicted: Int, label: Int): Unit
  def value: Double
  def reset(): Unit
}

/** A metric that needs all forward-pass results at once (§4.3 stores the
  * scores only when such a metric is requested).
  */
trait HolisticMetric {
  def name: String
  /** `positiveScores(i)` is the model's score for the positive class (or
    * the true class) of sample i; `labels(i)` its label.
    */
  def compute(positiveScores: Array[Double], labels: Array[Int]): Double
}

/** Top-1 accuracy (decomposable). */
final class Accuracy extends DecomposableMetric {
  override val name = "Accuracy"
  private var correct = 0L
  private var total   = 0L
  override def observe(predicted: Int, label: Int): Unit = {
    if (predicted == label) correct += 1
    total += 1
  }
  override def value: Double = if (total == 0) 0.0 else correct.toDouble / total
  override def reset(): Unit = { correct = 0; total = 0 }
}

/** Macro-averaged F1 over the classes actually present (decomposable via
  * per-class counters).
  */
final class F1Macro extends DecomposableMetric {
  override val name = "F1Macro"
  private val tp = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val fp = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
  private val fn = scala.collection.mutable.Map.empty[Int, Long].withDefaultValue(0L)
  override def observe(predicted: Int, label: Int): Unit = {
    if (predicted == label) tp(label) += 1
    else { fp(predicted) += 1; fn(label) += 1 }
  }
  override def value: Double = {
    val classes = (tp.keySet ++ fp.keySet ++ fn.keySet).toSeq
    if (classes.isEmpty) return 0.0
    val f1s = classes.map { c =>
      val p = if (tp(c) + fp(c) == 0) 0.0 else tp(c).toDouble / (tp(c) + fp(c))
      val r = if (tp(c) + fn(c) == 0) 0.0 else tp(c).toDouble / (tp(c) + fn(c))
      if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    }
    f1s.sum / f1s.size
  }
  override def reset(): Unit = { tp.clear(); fp.clear(); fn.clear() }
}

/** ROC-AUC for binary classification (holistic): the probability that a
  * random positive outscores a random negative, computed via the rank-sum
  * formulation with midrank tie handling.
  */
final class RocAuc extends HolisticMetric {
  override val name = "RocAuc"
  override def compute(positiveScores: Array[Double], labels: Array[Int]): Double = {
    require(positiveScores.length == labels.length, "scores/labels arity mismatch")
    val n = labels.length
    val nPos = labels.count(_ == 1).toLong
    val nNeg = n - nPos
    if (nPos == 0 || nNeg == 0) return 0.5
    val order = (0 until n).sortBy(positiveScores)
    val ranks = new Array[Double](n)
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && positiveScores(order(j + 1)) == positiveScores(order(i))) j += 1
      val midrank = (i + j + 2) / 2.0 // ranks are 1-based
      (i to j).foreach(k => ranks(order(k)) = midrank)
      i = j + 1
    }
    var posRankSum = 0.0
    (0 until n).foreach(k => if (labels(k) == 1) posRankSum += ranks(k))
    (posRankSum - nPos * (nPos + 1) / 2.0) / (nPos.toDouble * nNeg)
  }
}

/** One evaluation request's result. */
final case class EvalResult(metric: String, value: Double, numSamples: Long)

/** Parsed eval sets, back to back in one row block: set `s` owns rows
  * `offsets(s)` until `offsets(s + 1)`, each row the features
  * `BytesParser.parse` returned for one sample, with its label.
  */
final class EvalBlock(val rows: Array[Array[Float]], val labels: Array[Int], val offsets: Array[Int]) {
  require(rows.length == labels.length, "rows/labels arity mismatch")
  require(offsets.nonEmpty && offsets(0) == 0 && offsets.last == rows.length,
    "offsets must run from 0 to the row count")
  def numSets: Int = offsets.length - 1
}

/** The evaluator component (§4.3): runs a model over an evaluation set and
  * computes the configured metrics. Decomposable metrics are updated
  * incrementally; forward-pass scores are retained only when a holistic
  * metric is requested, mirroring the paper's memory optimization.
  */
object Evaluator {

  /** Most rows per task of `evaluateBlock`'s parallel scoring pass. */
  private val RangeRows = 256

  /** Evaluate `model` on `(features, labels)` with the given metrics. */
  def evaluate(model: Model, features: Iterator[(Array[Float], Int)],
               decomposable: Seq[DecomposableMetric] = Seq(new Accuracy),
               holistic: Seq[HolisticMetric] = Seq.empty): Seq[EvalResult] = {
    decomposable.foreach(_.reset())
    val keepScores = holistic.nonEmpty
    val scoreBuf   = Array.newBuilder[Double]
    val labelBuf   = Array.newBuilder[Int]
    var n = 0L
    features.foreach { case (x, y) =>
      val s = model.scores(x)
      val best = argmax(s)
      decomposable.foreach(_.observe(best, y))
      if (keepScores) {
        scoreBuf += holisticScore(s, y)
        labelBuf += y
      }
      n += 1
    }
    results(decomposable, holistic, n, scoreBuf.result(), labelBuf.result())
  }

  /** Evaluate `model` on every set of `block`, giving one result list per
    * set, each equal to what [[evaluate]] gives on that set's rows.
    *
    * One scoring pass runs `model.scores` over the whole block in ranges
    * of at most 256 rows on the common ForkJoin pool, and writes each
    * row's argmax (and its holistic score, only when a holistic metric is
    * requested) into per-row arrays. Each set's metrics are then reset and
    * folded on the calling thread in row order, so the results do not
    * depend on thread count or scheduling.
    */
  def evaluateBlock(model: Model, block: EvalBlock, decomposable: Seq[DecomposableMetric],
                    holistic: Seq[HolisticMetric]): IndexedSeq[Seq[EvalResult]] = {
    val n          = block.rows.length
    val keepScores = holistic.nonEmpty
    val predicted  = new Array[Int](n)
    val scores     = if (keepScores) new Array[Double](n) else Array.emptyDoubleArray
    Parallel.ranges(n, (n + RangeRows - 1) / RangeRows) { (from, end) =>
      var i = from
      while (i < end) {
        val s = model.scores(block.rows(i))
        predicted(i) = argmax(s)
        if (keepScores) scores(i) = holisticScore(s, block.labels(i))
        i += 1
      }
    }
    (0 until block.numSets).map { set =>
      val from  = block.offsets(set)
      val until = block.offsets(set + 1)
      decomposable.foreach(_.reset())
      var i = from
      while (i < until) {
        val p = predicted(i); val y = block.labels(i)
        decomposable.foreach(_.observe(p, y))
        i += 1
      }
      if (keepScores)
        results(decomposable, holistic, until - from,
          java.util.Arrays.copyOfRange(scores, from, until),
          java.util.Arrays.copyOfRange(block.labels, from, until))
      else results(decomposable, holistic, until - from, scores, Array.emptyIntArray)
    }
  }

  private def argmax(s: Array[Double]): Int = {
    var best = 0; var c = 1
    while (c < s.length) { if (s(c) > s(best)) best = c; c += 1 }
    best
  }

  /** The score a holistic metric sees: binary, the positive-class score;
    * multiclass, the true-class score.
    */
  private def holisticScore(s: Array[Double], y: Int): Double = if (s.length == 2) s(1) else s(y)

  private def results(decomposable: Seq[DecomposableMetric], holistic: Seq[HolisticMetric],
                      n: Long, scores: Array[Double], labels: Array[Int]): Seq[EvalResult] =
    decomposable.map(m => EvalResult(m.name, m.value, n)) ++
      holistic.map(m => EvalResult(m.name, m.compute(scores, labels), n))

  /** Resolve metrics by pipeline name. */
  def decomposableByName(name: String): DecomposableMetric = name match {
    case "Accuracy" => new Accuracy
    case "F1Macro"  => new F1Macro
    case other      => throw new IllegalArgumentException(s"unknown decomposable metric '$other'")
  }

  def holisticByName(name: String): HolisticMetric = name match {
    case "RocAuc" => new RocAuc
    case other    => throw new IllegalArgumentException(s"unknown holistic metric '$other'")
  }
}
