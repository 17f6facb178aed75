package repro.trainer

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class ModelSpec extends AnyFunSuite {

  private def randX(dim: Int, seed: Long): Array[Float] =
    Array.tabulate(dim)(i => Rng.gaussian(Rng.mix2(seed, i)).toFloat)

  /** Finite-difference check: SGD step direction must match -lr * dL/dw. */
  private def gradCheck(mkModel: () => Model, dim: Int, y: Int): Unit = {
    val eps   = 1e-5
    val x     = randX(dim, 7L)
    val base  = mkModel()
    val w0    = base.weights
    // Analytic gradient from one plain-SGD step with lr=1, no momentum/wd.
    base.trainBatch(Array(x), Array(y), Array(1.0))
    val w1   = base.weights
    val grad = w0.indices.map(i => w0(i) - w1(i)) // lr = 1
    // Numeric gradient on a few random coordinates.
    val coords = Seq(0, dim / 2, w0.length - 1, w0.length / 2)
    coords.foreach { i =>
      val m = mkModel()
      val wp = w0.clone(); wp(i) += eps
      m.setWeights(wp)
      val lp = m.lossOf(x, y)
      val wm = w0.clone(); wm(i) -= eps
      m.setWeights(wm)
      val lm = m.lossOf(x, y)
      val numeric = (lp - lm) / (2 * eps)
      assert(math.abs(numeric - grad(i)) < 1e-4,
        s"coord $i: numeric $numeric vs analytic ${grad(i)}")
    }
  }

  test("softmax: gradient matches finite differences") {
    gradCheck(() => new SoftmaxRegressionModel(8, 5, SgdConfig(lr = 1.0), seed = 3), 8, y = 2)
  }

  test("logistic: gradient matches finite differences") {
    gradCheck(() => new LogisticRegressionModel(8, SgdConfig(lr = 1.0), seed = 3), 8, y = 1)
    gradCheck(() => new LogisticRegressionModel(8, SgdConfig(lr = 1.0), seed = 3), 8, y = 0)
  }

  test("softmax: probabilities sum to one") {
    val m = new SoftmaxRegressionModel(6, 4, SgdConfig(0.1))
    val p = m.scores(randX(6, 1))
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.forall(_ >= 0))
  }

  test("logistic: scores are (1-p, p)") {
    val m = new LogisticRegressionModel(6, SgdConfig(0.1))
    val s = m.scores(randX(6, 1))
    assert(math.abs(s.sum - 1.0) < 1e-12)
    assert(math.abs(s(1) - m.clickProbability(randX(6, 1))) < 1e-12)
  }

  test("weights roundtrip through setWeights") {
    val m = new SoftmaxRegressionModel(5, 3, SgdConfig(0.1), seed = 1)
    val w = m.weights
    val m2 = new SoftmaxRegressionModel(5, 3, SgdConfig(0.1), seed = 2)
    m2.setWeights(w)
    assert(m2.weights.toSeq == w.toSeq)
    val x = randX(5, 4)
    assert(m.scores(x).toSeq == m2.scores(x).toSeq)
  }

  test("setWeights validates the length") {
    val m = new SoftmaxRegressionModel(5, 3, SgdConfig(0.1))
    intercept[IllegalArgumentException] { m.setWeights(new Array[Double](7)) }
    val l = new LogisticRegressionModel(5, SgdConfig(0.1))
    intercept[IllegalArgumentException] { l.setWeights(new Array[Double](3)) }
  }

  test("training reduces loss on a separable toy problem (softmax)") {
    val m  = new SoftmaxRegressionModel(2, 2, SgdConfig(lr = 0.5), seed = 1)
    val xs = Array(Array(1f, 0f), Array(0f, 1f), Array(0.9f, 0.1f), Array(0.1f, 0.9f))
    val ys = Array(0, 1, 0, 1)
    val w  = Array.fill(4)(1.0)
    val l0 = m.trainBatch(xs, ys, w)
    (0 until 200).foreach(_ => m.trainBatch(xs, ys, w))
    val lN = xs.indices.map(i => m.lossOf(xs(i), ys(i))).sum / 4
    assert(lN < l0 / 4, s"loss $l0 -> $lN")
    assert(xs.indices.forall(i => m.predict(xs(i)) == ys(i)))
  }

  test("training reduces loss on a separable toy problem (logistic)") {
    val m  = new LogisticRegressionModel(2, SgdConfig(lr = 0.5), seed = 1)
    val xs = Array(Array(2f, 0f), Array(0f, 2f), Array(1.5f, 0.2f), Array(0.1f, 1.7f))
    val ys = Array(1, 0, 1, 0)
    val w  = Array.fill(4)(1.0)
    (0 until 300).foreach(_ => m.trainBatch(xs, ys, w))
    assert(xs.indices.forall(i => m.predict(xs(i)) == ys(i)))
  }

  test("sample weight 0 means no update from that sample") {
    val cfg = SgdConfig(lr = 0.1)
    val a = new SoftmaxRegressionModel(4, 3, cfg, seed = 9)
    val b = new SoftmaxRegressionModel(4, 3, cfg, seed = 9)
    val x1 = randX(4, 1); val x2 = randX(4, 2)
    a.trainBatch(Array(x1), Array(0), Array(1.0))
    // b sees x2 with weight 0 alongside x1 — but batch mean divides by 2,
    // so use weight 2 on x1 to compensate the 1/B factor.
    b.trainBatch(Array(x1, x2), Array(0, 1), Array(2.0, 0.0))
    a.weights.zip(b.weights).foreach { case (wa, wb) => assert(math.abs(wa - wb) < 1e-12) }
  }

  test("doubling the sample weight doubles the step (no momentum)") {
    val cfg = SgdConfig(lr = 0.1)
    val w0  = new SoftmaxRegressionModel(4, 3, cfg, seed = 9).weights
    val a = new SoftmaxRegressionModel(4, 3, cfg, seed = 9)
    val b = new SoftmaxRegressionModel(4, 3, cfg, seed = 9)
    val x = randX(4, 1)
    a.trainBatch(Array(x), Array(1), Array(1.0))
    b.trainBatch(Array(x), Array(1), Array(2.0))
    w0.indices.foreach { i =>
      val da = a.weights(i) - w0(i)
      val db = b.weights(i) - w0(i)
      assert(math.abs(db - 2 * da) < 1e-12)
    }
  }

  test("momentum accumulates velocity across steps") {
    val x = randX(3, 5)
    val plain = new SoftmaxRegressionModel(3, 2, SgdConfig(lr = 0.1), seed = 4)
    val mom   = new SoftmaxRegressionModel(3, 2, SgdConfig(lr = 0.1, momentum = 0.9), seed = 4)
    (0 until 5).foreach { _ =>
      plain.trainBatch(Array(x), Array(0), Array(1.0))
      mom.trainBatch(Array(x), Array(0), Array(1.0))
    }
    // With momentum the parameters should have moved strictly further.
    val w0 = new SoftmaxRegressionModel(3, 2, SgdConfig(0.1), seed = 4).weights
    def dist(m: Model) = math.sqrt(m.weights.zip(w0).map { case (a, b) => (a - b) * (a - b) }.sum)
    assert(dist(mom) > dist(plain))
  }

  test("weight decay shrinks parameters toward zero") {
    val x = Array(0f, 0f, 0f) // zero input: only decay acts on W
    val m = new SoftmaxRegressionModel(3, 2, SgdConfig(lr = 0.1, weightDecay = 0.5), seed = 4)
    // Bias gets a loss gradient even for x = 0, so compare only the W block.
    val before = m.weights.take(6).map(math.abs).sum
    (0 until 20).foreach(_ => m.trainBatch(Array(x), Array(0), Array(1.0)))
    val after = m.weights.take(6).map(math.abs).sum
    assert(after < before)
  }

  test("gradnorm: CE-optimized equals ||p - y||, upper bound scales by ||x||") {
    val m = new SoftmaxRegressionModel(4, 3, SgdConfig(0.1), seed = 2)
    val x = randX(4, 8)
    val p = m.scores(x)
    val expected = {
      val d = p.clone(); d(1) -= 1.0
      math.sqrt(d.map(v => v * v).sum)
    }
    assert(math.abs(m.lastLayerGradNorm(x, 1, ceOptimized = true) - expected) < 1e-9)
    val xn = math.sqrt(x.map(v => v.toDouble * v).sum)
    assert(math.abs(m.lastLayerGradNorm(x, 1, ceOptimized = false) - expected * xn) < 1e-9)
  }

  test("gradnorm is near zero for a confidently correct prediction") {
    val m  = new SoftmaxRegressionModel(2, 2, SgdConfig(lr = 1.0), seed = 1)
    val x  = Array(3f, 0f)
    (0 until 200).foreach(_ => m.trainBatch(Array(x), Array(0), Array(1.0)))
    assert(m.lastLayerGradNorm(x, 0, ceOptimized = true) < 0.05)
    assert(m.lastLayerGradNorm(x, 1, ceOptimized = true) > 0.9) // wrong label: large
  }

  test("empty batch is a no-op") {
    val m = new SoftmaxRegressionModel(3, 2, SgdConfig(0.1), seed = 4)
    val w = m.weights
    assert(m.trainBatch(Array.empty, Array.empty, Array.empty) == 0.0)
    assert(m.weights.toSeq == w.toSeq)
  }

  test("batch arity mismatch is rejected") {
    val m = new SoftmaxRegressionModel(3, 2, SgdConfig(0.1))
    intercept[IllegalArgumentException] {
      m.trainBatch(Array(randX(3, 1)), Array(0, 1), Array(1.0))
    }
  }

  test("sgd config validation") {
    intercept[IllegalArgumentException] { SgdConfig(lr = 0) }
    intercept[IllegalArgumentException] { SgdConfig(lr = 0.1, momentum = 1.0) }
    intercept[IllegalArgumentException] { SgdConfig(lr = 0.1, weightDecay = -1) }
  }

  test("model factory resolves names and validates config") {
    val lr = ModelFactory.model("LogisticRegression", Map("hash_dim" -> 64.0), SgdConfig(0.1), 0)
    assert(lr.dim == 13 + 64)
    val sm = ModelFactory.model("ResNet50",
      Map("num_classes" -> 7.0, "feature_dim" -> 16.0), SgdConfig(0.1), 0)
    assert(sm.numClasses == 7 && sm.dim == 16)
    intercept[IllegalArgumentException] { ModelFactory.model("GPT", Map.empty, SgdConfig(0.1), 0) }
    intercept[IllegalArgumentException] {
      ModelFactory.model("SoftmaxRegression", Map.empty, SgdConfig(0.1), 0)
    }
  }

  /** The softmax model's arithmetic with one accumulator per logit, one
    * class at a time: what the model's four-class kernel must equal bit for
    * bit.
    */
  private final class ReferenceSoftmax(dim: Int, numClasses: Int, cfg: SgdConfig, w0: Array[Double]) {
    val w   = w0.clone()
    val vel = new Array[Double](w.length)

    def logits(x: Array[Float]): Array[Double] = Array.tabulate(numClasses) { c =>
      var s = w(numClasses * dim + c)
      var f = 0
      while (f < dim) { s += w(c * dim + f) * x(f); f += 1 }
      s
    }

    def scores(x: Array[Float]): Array[Double] = {
      val z = logits(x)
      val max = z.max
      val e = z.map(v => math.exp(v - max))
      var sum = 0.0
      e.foreach(sum += _)
      e.map(_ / sum)
    }

    def lossOf(x: Array[Float], y: Int): Double = -math.log(math.max(scores(x)(y), 1e-12))

    def gradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double = {
      val p = scores(x); p(y) -= 1.0
      var g = 0.0
      p.foreach(v => g += v * v)
      var xn = 0.0
      x.foreach(v => xn += v.toDouble * v)
      if (ceOptimized) math.sqrt(g) else math.sqrt(g) * math.sqrt(xn)
    }

    def trainBatch(xs: Array[Array[Float]], ys: Array[Int], sw: Array[Double]): Double = {
      val grad = new Array[Double](w.length)
      val invB = 1.0 / xs.length
      var lossSum = 0.0
      xs.indices.foreach { i =>
        val p = scores(xs(i))
        lossSum += sw(i) * -math.log(math.max(p(ys(i)), 1e-12))
        p(ys(i)) -= 1.0
        (0 until numClasses).foreach { c =>
          val g = sw(i) * invB * p(c)
          if (g != 0.0) {
            (0 until dim).foreach(f => grad(c * dim + f) += g * xs(i)(f))
            grad(numClasses * dim + c) += g
          }
        }
      }
      w.indices.foreach { j =>
        vel(j) = cfg.momentum * vel(j) + (grad(j) + cfg.weightDecay * w(j))
        w(j) -= cfg.lr * vel(j)
      }
      lossSum * invB
    }
  }

  test("softmax kernel is bit-identical to a one-accumulator loop") {
    val cfg = SgdConfig(lr = 0.05, momentum = 0.9, weightDecay = 1e-4)
    for (numClasses <- Seq(2, 3, 4, 5, 7, 48); dim <- Seq(1, 3, 16, 64)) {
      val seed = numClasses * 100L + dim
      val w0 = Array.tabulate(numClasses * dim + numClasses)(i => Rng.gaussian(Rng.mix2(seed, i)) * 0.5)
      val m = new SoftmaxRegressionModel(dim, numClasses, cfg)
      m.setWeights(w0)
      val ref = new ReferenceSoftmax(dim, numClasses, cfg, w0)
      val xs  = Array.tabulate(20)(i => randX(dim, seed * 31 + i))
      val ys  = Array.tabulate(20)(i => Math.floorMod(Rng.mix2(seed, 1000L + i), numClasses.toLong).toInt)
      val sw  = Array.tabulate(20)(i => 0.5 + (i % 3))
      val at  = s"C=$numClasses d=$dim"
      xs.indices.foreach { i =>
        assert(java.util.Arrays.equals(m.scores(xs(i)), ref.scores(xs(i))), at)
        assert(m.lossOf(xs(i), ys(i)) == ref.lossOf(xs(i), ys(i)), at)
        assert(m.lastLayerGradNorm(xs(i), ys(i), ceOptimized = true) == ref.gradNorm(xs(i), ys(i), true), at)
        assert(m.lastLayerGradNorm(xs(i), ys(i), ceOptimized = false) == ref.gradNorm(xs(i), ys(i), false), at)
      }
      (0 until 3).foreach { step =>
        val batch = (step * 5 until step * 5 + 8)
        val loss  = m.trainBatch(batch.map(xs).toArray, batch.map(ys).toArray, batch.map(sw).toArray)
        assert(loss == ref.trainBatch(batch.map(xs).toArray, batch.map(ys).toArray, batch.map(sw).toArray), at)
        assert(java.util.Arrays.equals(m.weights, ref.w), s"$at step $step")
      }
      assert(java.util.Arrays.equals(m.scores(xs(0)), ref.scores(xs(0))), at)
    }
  }

  test("softmax step is bit-identical to a one-accumulator loop for any batch shape and task split") {
    val cfg = SgdConfig(lr = 0.05, momentum = 0.9, weightDecay = 1e-4)
    for (numClasses <- Seq(2, 3, 5, 7, 48, 96); dim <- Seq(1, 37, 64); n <- Seq(1, 31, 64, 65, 256, 257)) {
      val seed = numClasses * 10000L + dim * 1000L + n
      val w0   = Array.tabulate(numClasses * dim + numClasses)(i => Rng.gaussian(Rng.mix2(seed, i)) * 0.5)
      val batches = (0 until 2).map { step =>
        // Every seventh row is scaled up, so that some of its classes'
        // probabilities underflow to 0 and their factors are skipped.
        val xs = Array.tabulate(n) { i =>
          val x = randX(dim, seed * 31 + step * n + i)
          if (i % 7 == 3) x.map(_ * 1000f) else x
        }
        val ys = Array.tabulate(n)(i => Math.floorMod(Rng.mix2(seed, step * n + i), numClasses.toLong).toInt)
        // Every fifth sample has weight 0, so that its gradient terms are skipped.
        val sw = Array.tabulate(n)(i => if (i % 5 == 2) 0.0 else 0.5 + (i % 3))
        (xs, ys, sw)
      }
      val ref = new ReferenceSoftmax(dim, numClasses, cfg, w0)
      val want = batches.map { case (xs, ys, sw) => (ref.trainBatch(xs, ys, sw), ref.w.clone()) }
      // None: the split the model derives from the batch's shape.
      val splits = Seq(None, Some((1, 1)), Some((2, 3)), Some((7, 2)), Some((n, numClasses)))
      for (split <- splits) {
        val m = new SoftmaxRegressionModel(dim, numClasses, cfg)
        m.setWeights(w0)
        batches.zip(want).zipWithIndex.foreach { case (((xs, ys, sw), (loss, w)), step) =>
          val at = s"C=$numClasses d=$dim n=$n split=$split step $step"
          val got = split match {
            case None             => m.trainBatch(xs, ys, sw)
            case Some((rows, cs)) => m.trainBatch(xs, ys, sw, math.min(rows, n), math.min(cs, numClasses))
          }
          assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(loss), at)
          assert(java.util.Arrays.equals(m.weights, w), at)
        }
      }
    }
  }
}
