package repro.trainer

import repro.util.Rng

/** A downsampling policy (§4.1.2): assigns each sample an importance score
  * using the model's forward pass; the trainer then keeps a `ratio` subset,
  * sampled with probability proportional to the scores, and trains on it
  * with importance-sampling weights (DLIS, Katharopoulos & Fleuret '18).
  *
  * Engineers "implement one version of the downsampling policy" — the
  * score function — "and not worry about the flow of data": both StB and
  * BtS execution are provided by [[DownsamplingDriver]].
  */
trait DownsamplerPolicy {
  def name: String

  /** Importance score of one sample (must be non-negative). */
  def score(model: Model, x: Array[Float], y: Int): Double
}

/** DLIS importance by last-layer gradient norm, with the paper's two
  * variants: the general-purpose upper bound and the cross-entropy-
  * optimized version (§5.2: "both a general-purpose implementation and
  * optimized implementation for the cross entropy loss").
  */
final class GradNormDownsampler(ceOptimized: Boolean = true) extends DownsamplerPolicy {
  override val name: String = if (ceOptimized) "GradNormCE" else "GradNorm"
  override def score(model: Model, x: Array[Float], y: Int): Double =
    model.lastLayerGradNorm(x, y, ceOptimized)
}

/** Importance by per-sample loss — the other common DLIS proxy. */
final class LossDownsampler extends DownsamplerPolicy {
  override val name = "Loss"
  override def score(model: Model, x: Array[Float], y: Int): Double =
    model.lossOf(x, y)
}

/** Executes a [[DownsamplerPolicy]] in either mode (§4.1.2):
  *
  *  - '''sample-then-batch (StB)''': a sampling phase first runs the
  *    forward pass over the whole trigger training set to build up the
  *    score state, then draws the downsampled set once; training fetches
  *    keys from that set.
  *  - '''batch-then-sample (BtS)''': each training batch is first scored,
  *    then a per-batch subset is drawn and trained on immediately.
  *
  * Draws are with replacement with p_i ∝ score_i and carry the unbiased
  * importance weight 1 / (N · p_i), so the expected weighted gradient
  * equals the full-data mean gradient.
  */
object DownsamplingDriver {

  /** Selected index + importance weight, relative to the scored pool. */
  final case class Draw(index: Int, weight: Double)

  /** Draw `m` indices from `scores` with replacement, p ∝ score. A zero
    * total score falls back to uniform (all weights 1).
    */
  def draw(scores: Array[Double], m: Int, seed: Long): IndexedSeq[Draw] = {
    require(m > 0, "must draw at least one sample")
    val n = scores.length
    require(n > 0, "cannot downsample an empty pool")
    require(scores.forall(_ >= 0), "scores must be non-negative")
    val total = scores.sum
    if (total <= 0) {
      // Degenerate pool: uniform draw, neutral weights.
      return (0 until m).map(i => Draw(Rng.int(Rng.mix2(seed, i), n), 1.0))
    }
    val cdf = new Array[Double](n)
    var acc = 0.0
    var i = 0
    while (i < n) { acc += scores(i); cdf(i) = acc; i += 1 }
    (0 until m).map { d =>
      val u   = Rng.uniform(Rng.mix2(seed, d)) * total
      val idx = lowerBound(cdf, u)
      val p   = scores(idx) / total
      Draw(idx, 1.0 / (n * p))
    }
  }

  private def lowerBound(cdf: Array[Double], u: Double): Int = {
    var lo = 0; var hi = cdf.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cdf(mid) <= u) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** StB sampling phase: score every sample of the pool as it streams by
    * (batches of (x, y, key)), then draw `ratio * N` of them. The model is
    * fixed during this phase, so only keys and scores are kept: O(N)
    * memory, not O(N·d). Returns (keys, weights) of the downsampled
    * training set.
    */
  def sampleThenBatch(policy: DownsamplerPolicy, model: Model, ratio: Double,
                      pool: Iterator[(Array[Float], Int, Long)],
                      seed: Long): (Array[Long], Array[Double]) = {
    val keys   = Array.newBuilder[Long]
    val scores = Array.newBuilder[Double]
    pool.foreach { case (x, y, key) => keys += key; scores += policy.score(model, x, y) }
    val poolKeys = keys.result()
    require(poolKeys.nonEmpty, "cannot downsample an empty trigger training set")
    val m     = math.max(1, math.ceil(ratio * poolKeys.length).toInt)
    val draws = draw(scores.result(), m, seed)
    (draws.map(d => poolKeys(d.index)).toArray, draws.map(_.weight).toArray)
  }

  /** BtS: score one batch and draw `ratio * batchSize` of its samples.
    * Returns per-draw (index into the batch, weight relative to the batch).
    */
  def batchThenSample(policy: DownsamplerPolicy, model: Model, ratio: Double,
                      xs: Array[Array[Float]], ys: Array[Int],
                      seed: Long): IndexedSeq[Draw] = {
    val scores = Array.tabulate(xs.length)(i => policy.score(model, xs(i), ys(i)))
    val m      = math.max(1, math.ceil(ratio * xs.length).toInt)
    draw(scores, m, seed)
  }

  /** Resolve a policy by name (the pipeline's `downsampling_config.name`). */
  def policyByName(name: String): DownsamplerPolicy = name match {
    case "GradNorm"   => new GradNormDownsampler(ceOptimized = false)
    case "GradNormCE" => new GradNormDownsampler(ceOptimized = true)
    case "Loss"       => new LossDownsampler
    case other        => throw new IllegalArgumentException(s"unknown downsampler '$other'")
  }
}
