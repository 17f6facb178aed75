package repro.trainer

import org.scalatest.funsuite.AnyFunSuite
import repro.util.Rng

class DownsamplerSpec extends AnyFunSuite {
  import DownsamplingDriver._

  private def model(seed: Long = 1): Model =
    new SoftmaxRegressionModel(4, 3, SgdConfig(0.1), seed)

  private def randX(seed: Long): Array[Float] =
    Array.tabulate(4)(i => Rng.gaussian(Rng.mix2(seed, i)).toFloat)

  test("draw: indices in range, exactly m draws") {
    val d = draw(Array(1.0, 2.0, 3.0), m = 10, seed = 1)
    assert(d.size == 10)
    assert(d.forall(x => x.index >= 0 && x.index < 3))
  }

  test("draw: probability proportional to score") {
    val scores = Array(1.0, 9.0)
    val draws  = draw(scores, m = 20000, seed = 5)
    val frac1  = draws.count(_.index == 1).toDouble / draws.size
    assert(math.abs(frac1 - 0.9) < 0.02, s"frac $frac1")
  }

  test("draw: importance weights are 1/(N * p_i)") {
    val scores = Array(1.0, 3.0)
    val d = draw(scores, 100, 2)
    d.foreach { x =>
      val p = scores(x.index) / 4.0
      assert(math.abs(x.weight - 1.0 / (2 * p)) < 1e-12)
    }
  }

  test("draw: weighted estimate is unbiased for the mean") {
    val values = Array.tabulate(50)(i => (i + 1).toDouble)
    val scores = values.map(v => v * v) // strongly non-uniform proposal
    val draws  = draw(scores, m = 200000, seed = 11)
    val est    = draws.map(d => d.weight * values(d.index)).sum / draws.size
    val truth  = values.sum / values.length
    assert(math.abs(est - truth) / truth < 0.02, s"est $est vs $truth")
  }

  test("draw: zero scores fall back to uniform with neutral weights") {
    val d = draw(Array(0.0, 0.0, 0.0), 1000, 3)
    assert(d.forall(_.weight == 1.0))
    val counts = d.groupBy(_.index).view.mapValues(_.size)
    (0 until 3).foreach(i => assert(counts.getOrElse(i, 0) > 200))
  }

  test("draw: zero-score samples are never drawn when others score") {
    val d = draw(Array(0.0, 1.0, 0.0), 500, 4)
    assert(d.forall(_.index == 1))
  }

  test("draw: deterministic in seed, varies across seeds") {
    val s = Array(1.0, 2.0, 3.0, 4.0)
    assert(draw(s, 50, 7) == draw(s, 50, 7))
    assert(draw(s, 50, 7) != draw(s, 50, 8))
  }

  test("draw: rejects invalid arguments") {
    intercept[IllegalArgumentException] { draw(Array(1.0), 0, 1) }
    intercept[IllegalArgumentException] { draw(Array.empty[Double], 1, 1) }
    intercept[IllegalArgumentException] { draw(Array(-1.0), 1, 1) }
  }

  test("gradnorm policy scores match the model's grad norm") {
    val m = model()
    val x = randX(3)
    assert(new GradNormDownsampler(true).score(m, x, 1) ==
      m.lastLayerGradNorm(x, 1, ceOptimized = true))
    assert(new GradNormDownsampler(false).score(m, x, 1) ==
      m.lastLayerGradNorm(x, 1, ceOptimized = false))
  }

  test("loss policy scores match the model loss") {
    val m = model()
    val x = randX(4)
    assert(new LossDownsampler().score(m, x, 2) == m.lossOf(x, 2))
  }

  test("sampleThenBatch keeps ceil(ratio * N) draws from the pool keys") {
    val m    = model()
    val pool = (0 until 20).map(i => (randX(i), i % 3, 1000L + i))
    val (keys, weights) = sampleThenBatch(new LossDownsampler, m, 0.5, pool.iterator, seed = 3)
    assert(keys.length == 10 && weights.length == 10)
    assert(keys.forall(k => k >= 1000L && k < 1020L))
    assert(weights.forall(_ > 0))
  }

  test("sampleThenBatch draws exactly what draw gives over the pool's scores") {
    val m      = model(4)
    val policy = new GradNormDownsampler(true)
    val pool   = (0 until 50).map(i => (randX(100 + i), i % 3, 5000L + 7 * i))
    val scores = pool.map { case (x, y, _) => policy.score(m, x, y) }.toArray
    val draws  = draw(scores, 13, seed = 11)
    val (keys, weights) = sampleThenBatch(policy, m, 0.25, pool.iterator, seed = 11)
    assert(keys.toSeq == draws.map(d => pool(d.index)._3))
    assert(weights.toSeq == draws.map(_.weight))
  }

  test("sampleThenBatch on an empty pool fails") {
    intercept[IllegalArgumentException] {
      sampleThenBatch(new LossDownsampler, model(), 0.5, Iterator.empty, 1)
    }
  }

  test("batchThenSample keeps ceil(ratio * B) draws within the batch") {
    val m  = model()
    val xs = Array.tabulate(16)(i => randX(i))
    val ys = Array.tabulate(16)(_ % 3)
    val d  = batchThenSample(new GradNormDownsampler(true), m, 0.25, xs, ys, 9)
    assert(d.size == 4)
    assert(d.forall(x => x.index >= 0 && x.index < 16))
  }

  test("policy registry resolves names") {
    assert(policyByName("GradNorm").name == "GradNorm")
    assert(policyByName("GradNormCE").name == "GradNormCE")
    assert(policyByName("Loss").name == "Loss")
    intercept[IllegalArgumentException] { policyByName("Fancy") }
  }

  test("downsampling config validates the ratio") {
    intercept[IllegalArgumentException] { repro.selector.DownsamplingConfig("Loss", 0.0) }
    intercept[IllegalArgumentException] { repro.selector.DownsamplingConfig("Loss", 1.5) }
  }
}
