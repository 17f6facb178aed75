package repro.trainer

import repro.util.{Parallel, Rng}

/** SGD hyperparameters, as configured in a pipeline's training section. */
final case class SgdConfig(lr: Double, momentum: Double = 0.0, weightDecay: Double = 0.0) {
  require(lr > 0, "lr must be positive")
  require(momentum >= 0 && momentum < 1, "momentum must be in [0,1)")
  require(weightDecay >= 0, "weightDecay must be non-negative")
}

/** A trainable model in this reproduction's trainer server (§4.1.3).
  *
  * The paper trains PyTorch models (DLRM, ResNet50) on a GPU; with no GPU
  * in this environment, the models are pure-Scala linear classifiers
  * trained by minibatch SGD. What matters for the reproduced experiments
  * is preserved: per-sample weights multiply gradients (§3.1), per-sample
  * loss and last-layer gradient norms are exposed for downsamplers
  * (DLIS needs "the embedding and the last layer", §4.1.3), and the
  * compute cost per sample is what makes a workload memory- or
  * compute-bound in the throughput study.
  */
trait Model {
  /** Input feature dimensionality. */
  def dim: Int

  /** Number of output classes (2 for binary). */
  def numClasses: Int

  /** Flat copy of all parameters (for the model storage component). */
  def weights: Array[Double]

  /** Restore parameters from a flat vector (resets optimizer state). */
  def setWeights(w: Array[Double]): Unit

  /** Class probabilities for one sample. Must be safe to call from several
    * threads at once: it only reads the weights (the evaluator scores an
    * eval block in parallel).
    */
  def scores(x: Array[Float]): Array[Double]

  /** argmax prediction. */
  def predict(x: Array[Float]): Int = {
    val s = scores(x)
    var best = 0; var i = 1
    while (i < s.length) { if (s(i) > s(best)) best = i; i += 1 }
    best
  }

  /** Cross-entropy loss of one sample. */
  def lossOf(x: Array[Float], y: Int): Double

  /** Norm of the loss gradient w.r.t. the last layer's pre-activation —
    * the cheap DLIS importance proxy (`ceOptimized = true`), or the upper
    * bound `||p - y|| * ||x||` on the full last-layer weight-gradient norm
    * (`ceOptimized = false`).
    */
  def lastLayerGradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double

  /** One SGD step on a minibatch; `sampleWeights(i)` multiplies sample i's
    * gradient. Returns the (weighted) mean loss.
    */
  def trainBatch(xs: Array[Array[Float]], ys: Array[Int], sampleWeights: Array[Double]): Double
}

/** Multiclass linear softmax classifier — the stand-in for ResNet50 on the
  * CLOC-like workload. Parameters are `W` (C×d) and `b` (C), updated by
  * minibatch SGD with momentum and weight decay, matching the paper's §5.2
  * optimizer settings (lr 0.025, momentum 0.9, weight decay 1e-4).
  */
final class SoftmaxRegressionModel(val dim: Int, val numClasses: Int,
                                   cfg: SgdConfig, seed: Long = 0L) extends Model {
  require(numClasses >= 2, "need at least two classes")

  // Parameters: W row-major (c * dim + f), then biases.
  private val nParams = numClasses * dim + numClasses
  private var w  = Array.tabulate(nParams)(i => Rng.gaussian(Rng.mix2(seed, i)) * 0.01)
  private var vel = new Array[Double](nParams)

  override def weights: Array[Double] = w.clone()

  override def setWeights(nw: Array[Double]): Unit = {
    require(nw.length == nParams, s"expected $nParams params, got ${nw.length}")
    w = nw.clone(); vel = new Array[Double](nParams)
  }

  /** Per-class logits `b(c) + sum_f W(c, f) * x(f)`. Four classes run at
    * once in four independent accumulators, so that four add chains
    * overlap instead of one waiting on each add's latency. Each class still
    * adds its bias first and then f = 0..dim-1 in order, and JVM double
    * arithmetic is never fused, so every logit is bit-identical to a
    * one-class-at-a-time loop.
    */
  private def logits(x: Array[Float]): Array[Double] = {
    val w    = this.w
    val z    = new Array[Double](numClasses)
    val bias = numClasses * dim
    var c = 0
    while (c + 4 <= numClasses) {
      val b0 = c * dim; val b1 = b0 + dim; val b2 = b1 + dim; val b3 = b2 + dim
      var s0 = w(bias + c); var s1 = w(bias + c + 1)
      var s2 = w(bias + c + 2); var s3 = w(bias + c + 3)
      var f = 0
      while (f < dim) {
        val xf = x(f).toDouble
        s0 += w(b0 + f) * xf; s1 += w(b1 + f) * xf
        s2 += w(b2 + f) * xf; s3 += w(b3 + f) * xf
        f += 1
      }
      z(c) = s0; z(c + 1) = s1; z(c + 2) = s2; z(c + 3) = s3
      c += 4
    }
    while (c < numClasses) {
      var s = w(bias + c)
      val base = c * dim
      var f = 0
      while (f < dim) { s += w(base + f) * x(f); f += 1 }
      z(c) = s; c += 1
    }
    z
  }

  private def softmax(z: Array[Double]): Array[Double] = {
    var max = z(0); var i = 1
    while (i < z.length) { if (z(i) > max) max = z(i); i += 1 }
    val e = new Array[Double](z.length); var sum = 0.0
    i = 0
    while (i < z.length) { e(i) = math.exp(z(i) - max); sum += e(i); i += 1 }
    i = 0
    while (i < z.length) { e(i) /= sum; i += 1 }
    e
  }

  override def scores(x: Array[Float]): Array[Double] = softmax(logits(x))

  override def lossOf(x: Array[Float], y: Int): Double =
    -math.log(math.max(scores(x)(y), 1e-12))

  override def lastLayerGradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double = {
    val p = scores(x)
    p(y) -= 1.0
    var g = 0.0; var c = 0
    while (c < numClasses) { g += p(c) * p(c); c += 1 }
    val gz = math.sqrt(g)
    if (ceOptimized) gz
    else {
      var xn = 0.0; var f = 0
      while (f < dim) { xn += x(f).toDouble * x(f); f += 1 }
      gz * math.sqrt(xn)
    }
  }

  /** Multiply-adds per task of the parallel training step: tens of
    * microseconds of work, against a few for handing a task to the pool.
    */
  private val TaskWork = 1 << 16

  /** One SGD step, split into parallel tasks by the batch's shape: one
    * task per `TaskWork` multiply-adds of the logits (at most one per row)
    * for the probabilities, and as many (at most one per class) for the
    * gradient.
    */
  override def trainBatch(xs: Array[Array[Float]], ys: Array[Int],
                          sampleWeights: Array[Double]): Double = {
    require(xs.length == ys.length && xs.length == sampleWeights.length, "batch arity mismatch")
    if (xs.isEmpty) return 0.0
    val work  = xs.length.toLong * numClasses * dim
    val tasks = ((work + TaskWork - 1) / TaskWork).toInt
    trainBatch(xs, ys, sampleWeights, math.min(tasks, xs.length), math.min(tasks, numClasses))
  }

  /** The SGD step on a non-empty batch, with the probabilities computed in
    * `rowTasks` row ranges and the gradient in `classTasks` class ranges,
    * in parallel on the common ForkJoin pool. The loss is summed in row
    * order on the caller, each gradient entry adds its rows in row order
    * inside one task, and the update runs on the caller, so the result is
    * bit-identical for any split and to a loop over one sample at a time.
    */
  private[trainer] def trainBatch(xs: Array[Array[Float]], ys: Array[Int], sampleWeights: Array[Double],
                                  rowTasks: Int, classTasks: Int): Double = {
    val n    = xs.length
    val invB = 1.0 / n
    // dz(i * numClasses + c): row i's factor in class c's gradient, the
    // weighted dL/dz scaled by 1/B.
    val dz   = new Array[Double](n * numClasses)
    val loss = new Array[Double](n)
    Parallel.ranges(n, rowTasks) { (from, until) =>
      var i = from
      while (i < until) {
        val y = ys(i); val sw = sampleWeights(i)
        val p = softmax(logits(xs(i)))
        loss(i) = sw * -math.log(math.max(p(y), 1e-12))
        p(y) -= 1.0 // dL/dz
        val row = i * numClasses
        var c = 0
        while (c < numClasses) { dz(row + c) = sw * invB * p(c); c += 1 }
        i += 1
      }
    }
    var lossSum = 0.0
    var i = 0
    while (i < n) { lossSum += loss(i); i += 1 }
    val grad = new Array[Double](nParams)
    Parallel.ranges(numClasses, classTasks) { (from, until) =>
      var i = 0
      while (i < n) {
        val x = xs(i); val row = i * numClasses
        var c = from
        while (c < until) {
          val g = dz(row + c)
          if (g != 0.0) {
            val base = c * dim
            var f = 0
            while (f < dim) { grad(base + f) += g * x(f); f += 1 }
            grad(numClasses * dim + c) += g
          }
          c += 1
        }
        i += 1
      }
    }
    // v <- m*v + (grad + wd*w); w <- w - lr*v   (PyTorch SGD semantics)
    var j = 0
    while (j < nParams) {
      val g = grad(j) + cfg.weightDecay * w(j)
      vel(j) = cfg.momentum * vel(j) + g
      w(j) -= cfg.lr * vel(j)
      j += 1
    }
    lossSum * invB
  }
}

/** Binary logistic-regression CTR model — the stand-in for DLRM on the
  * Criteo-like workload. Exposes [[clickProbability]] for ROC-AUC.
  */
final class LogisticRegressionModel(val dim: Int, cfg: SgdConfig, seed: Long = 0L) extends Model {
  override val numClasses = 2

  private val nParams = dim + 1
  private var w   = Array.tabulate(nParams)(i => Rng.gaussian(Rng.mix2(seed, i)) * 0.01)
  private var vel = new Array[Double](nParams)

  override def weights: Array[Double] = w.clone()

  override def setWeights(nw: Array[Double]): Unit = {
    require(nw.length == nParams, s"expected $nParams params, got ${nw.length}")
    w = nw.clone(); vel = new Array[Double](nParams)
  }

  /** P(click = 1 | x). */
  def clickProbability(x: Array[Float]): Double = {
    var z = w(dim)
    var f = 0
    while (f < dim) { z += w(f) * x(f); f += 1 }
    1.0 / (1.0 + math.exp(-z))
  }

  override def scores(x: Array[Float]): Array[Double] = {
    val p = clickProbability(x)
    Array(1.0 - p, p)
  }

  override def lossOf(x: Array[Float], y: Int): Double = {
    val p = clickProbability(x)
    val py = if (y == 1) p else 1.0 - p
    -math.log(math.max(py, 1e-12))
  }

  override def lastLayerGradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double = {
    val g = math.abs(clickProbability(x) - y)
    if (ceOptimized) g
    else {
      var xn = 0.0; var f = 0
      while (f < dim) { xn += x(f).toDouble * x(f); f += 1 }
      g * math.sqrt(xn)
    }
  }

  override def trainBatch(xs: Array[Array[Float]], ys: Array[Int],
                          sampleWeights: Array[Double]): Double = {
    require(xs.length == ys.length && xs.length == sampleWeights.length, "batch arity mismatch")
    if (xs.isEmpty) return 0.0
    val grad = new Array[Double](nParams)
    var lossSum = 0.0
    val invB = 1.0 / xs.length
    var i = 0
    while (i < xs.length) {
      val x = xs(i); val y = ys(i); val sw = sampleWeights(i)
      val p = clickProbability(x)
      val py = if (y == 1) p else 1.0 - p
      lossSum += sw * -math.log(math.max(py, 1e-12))
      val g = sw * invB * (p - y)
      var f = 0
      while (f < dim) { grad(f) += g * x(f); f += 1 }
      grad(dim) += g
      i += 1
    }
    var j = 0
    while (j < nParams) {
      val g = grad(j) + cfg.weightDecay * w(j)
      vel(j) = cfg.momentum * vel(j) + g
      w(j) -= cfg.lr * vel(j)
      j += 1
    }
    lossSum * invB
  }
}
