package repro.evaluator

import org.scalatest.funsuite.AnyFunSuite
import repro.trainer.{SgdConfig, SoftmaxRegressionModel}

class MetricsSpec extends AnyFunSuite {

  test("accuracy over a known stream") {
    val a = new Accuracy
    Seq((1, 1), (0, 1), (2, 2), (1, 0)).foreach { case (p, y) => a.observe(p, y) }
    assert(a.value == 0.5)
  }

  test("accuracy resets") {
    val a = new Accuracy
    a.observe(1, 1)
    a.reset()
    assert(a.value == 0.0)
    a.observe(1, 1)
    assert(a.value == 1.0)
  }

  test("accuracy of an empty stream is 0") {
    assert(new Accuracy().value == 0.0)
  }

  test("f1 macro on a known confusion") {
    val f = new F1Macro
    // class 0: tp=1; class 1: fp=1 (pred 1, true 0).
    f.observe(0, 0)
    f.observe(1, 0)
    // class 0: p = 1/1, r = 1/2 -> f1 = 2/3; class 1: p = 0 -> f1 = 0.
    assert(math.abs(f.value - (2.0 / 3 + 0.0) / 2) < 1e-12)
  }

  test("f1 macro perfect prediction is 1") {
    val f = new F1Macro
    Seq((0, 0), (1, 1), (2, 2)).foreach { case (p, y) => f.observe(p, y) }
    assert(f.value == 1.0)
  }

  test("roc auc: perfect separation is 1, inverted is 0") {
    val auc = new RocAuc
    assert(auc.compute(Array(0.9, 0.8, 0.2, 0.1), Array(1, 1, 0, 0)) == 1.0)
    assert(auc.compute(Array(0.1, 0.2, 0.8, 0.9), Array(1, 1, 0, 0)) == 0.0)
  }

  test("roc auc: random scores give ~0.5, ties use midranks") {
    val auc = new RocAuc
    assert(auc.compute(Array(0.5, 0.5, 0.5, 0.5), Array(1, 0, 1, 0)) == 0.5)
  }

  test("roc auc: single-class input returns 0.5") {
    val auc = new RocAuc
    assert(auc.compute(Array(0.1, 0.9), Array(1, 1)) == 0.5)
  }

  test("roc auc agrees with the pairwise definition on a random instance") {
    val rng    = new scala.util.Random(7)
    val scores = Array.fill(200)(rng.nextInt(10) / 10.0) // with ties
    val labels = Array.fill(200)(rng.nextInt(2))
    val auc    = new RocAuc().compute(scores, labels)
    // Brute force: P(pos > neg) + 0.5 P(tie).
    var num = 0.0; var den = 0.0
    for (i <- scores.indices; j <- scores.indices
         if labels(i) == 1 && labels(j) == 0) {
      den += 1
      if (scores(i) > scores(j)) num += 1
      else if (scores(i) == scores(j)) num += 0.5
    }
    assert(math.abs(auc - num / den) < 1e-12)
  }

  test("evaluator: decomposable metrics without score retention") {
    val m = new SoftmaxRegressionModel(2, 2, SgdConfig(lr = 0.5), seed = 1)
    val xs = Array(Array(3f, 0f), Array(0f, 3f))
    (0 until 200).foreach(_ => m.trainBatch(xs, Array(0, 1), Array(1.0, 1.0)))
    val data = Seq((Array(3f, 0f), 0), (Array(0f, 3f), 1), (Array(3f, 0f), 1))
    val res = Evaluator.evaluate(m, data.iterator)
    assert(res.map(_.metric) == Seq("Accuracy"))
    assert(math.abs(res.head.value - 2.0 / 3) < 1e-12)
    assert(res.head.numSamples == 3)
  }

  test("evaluator: holistic metric on a binary model") {
    val m = new repro.trainer.LogisticRegressionModel(2, SgdConfig(0.5), 1)
    val xs = Array(Array(3f, 0f), Array(0f, 3f))
    (0 until 300).foreach(_ => m.trainBatch(xs, Array(1, 0), Array(1.0, 1.0)))
    val data = Seq((Array(3f, 0f), 1), (Array(0f, 3f), 0), (Array(2f, 1f), 1))
    val res = Evaluator.evaluate(m, data.iterator,
      decomposable = Seq(new Accuracy), holistic = Seq(new RocAuc))
    assert(res.map(_.metric) == Seq("Accuracy", "RocAuc"))
    assert(res(1).value == 1.0)
  }

  test("metric registries resolve names") {
    assert(Evaluator.decomposableByName("Accuracy").isInstanceOf[Accuracy])
    assert(Evaluator.decomposableByName("F1Macro").isInstanceOf[F1Macro])
    assert(Evaluator.holisticByName("RocAuc").isInstanceOf[RocAuc])
    intercept[IllegalArgumentException] { Evaluator.decomposableByName("Bleu") }
    intercept[IllegalArgumentException] { Evaluator.holisticByName("Accuracy") }
  }

  test("evaluateBlock gives per set what evaluate gives on that set's rows") {
    val m = new SoftmaxRegressionModel(8, 5, SgdConfig(0.1), seed = 3)
    m.setWeights(m.weights.map(_ * 50))
    // Set sizes straddle the 256-row ranges; one set is empty.
    val sizes   = Seq(700, 0, 1, 255, 300)
    val rows    = Array.tabulate(sizes.sum)(i =>
      Array.tabulate(8)(f => repro.util.Rng.gaussian(repro.util.Rng.mix2(i, f)).toFloat))
    val labels  = Array.tabulate(sizes.sum)(i => Math.floorMod(repro.util.Rng.mix2(i, 99L), 5L).toInt)
    val offsets = sizes.scanLeft(0)(_ + _).toArray
    val block   = new EvalBlock(rows, labels, offsets)
    val got = Evaluator.evaluateBlock(m, block, Seq(new Accuracy, new F1Macro), Seq(new RocAuc))
    assert(got.size == sizes.size)
    sizes.indices.foreach { s =>
      val range = offsets(s) until offsets(s + 1)
      val want = Evaluator.evaluate(m, range.iterator.map(i => (rows(i), labels(i))),
        Seq(new Accuracy, new F1Macro), Seq(new RocAuc))
      assert(got(s) == want, s"set $s")
    }
    assert(got(0).head.value > 0.0 && got(0).head.numSamples == 700)
  }
}
