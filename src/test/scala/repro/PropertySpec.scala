package repro

import org.scalacheck.{Gen, Prop, Test => SchkTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.selector.{SelectedSample, TriggerSampleStorage}
import repro.storage.LocalFileSystemWrapper
import repro.trainer.{DownsamplingDriver, InMemorySource}
import repro.util.Rng

/** Property-based invariants for the partitioning/sampling machinery,
  * driven by ScalaCheck properties (checked with a fixed seed so runs are
  * reproducible).
  */
class PropertySpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  /** Run a ScalaCheck property and fail the test on falsification. */
  private def check(prop: Prop, tests: Int = 30): Unit = {
    val params = SchkTest.Parameters.default
      .withMinSuccessfulTests(tests)
      .withInitialSeed(org.scalacheck.rng.Seed(42L))
    val result = SchkTest.check(params, prop)
    assert(result.passed, result.status.toString)
  }

  test("property: TSS worker shares always partition the records") {
    check(Prop.forAll(Gen.choose(1, 200), Gen.choose(1, 8), Gen.choose(1, 9)) {
      (n, threads, workers) =>
        TestUtil.withTmpDir { dir =>
          val tss = new TriggerSampleStorage(fs, dir)
          val samples = (0 until n).map(i => SelectedSample(i.toLong, i * 0.25))
          tss.writePartition(0, 0, samples, threads)
          val joined = (0 until workers).flatMap(w => tss.readWorkerShare(0, 0, w, workers))
          joined == samples
        }
    })
  }

  test("property: the columnar TSS share equals readWorkerShare for 1-8 writers x 1-8 workers") {
    check(Prop.forAll(Gen.choose(1, 200)) { n =>
      TestUtil.withTmpDir { dir =>
        val tss = new TriggerSampleStorage(fs, dir)
        val keys    = Array.tabulate(n)(i => Rng.mix(i.toLong))
        val weights = Array.tabulate(n)(i => Rng.uniform(i.toLong) - 0.5)
        (1 to 8).forall { writers =>
          tss.writePartition(writers, 0, keys, weights, 0, n, writers)
          (1 to 8).forall { workers =>
            (0 until workers).forall { w =>
              val (ks, ws) = tss.workerShare(writers, 0, w, workers)
              val rows     = tss.readWorkerShare(writers, 0, w, workers)
              ks.toSeq == rows.map(_.key) &&
                ws.map(java.lang.Double.doubleToRawLongBits).toSeq ==
                  rows.map(r => java.lang.Double.doubleToRawLongBits(r.weight))
            }
          }
        }
      }
    }, tests = 15)
  }

  test("property: InMemorySource shares cover every key exactly once") {
    check(Prop.forAll(Gen.choose(1, 300), Gen.choose(1, 50), Gen.choose(1, 9)) {
      (n, partSize, workers) =>
        val keys = (1L to n.toLong).toArray
        val src  = new InMemorySource(keys, keys.map(_.toDouble), partSize)
        val joined = (0 until src.numPartitions).flatMap { p =>
          (0 until workers).flatMap(w => src.workerShare(p, w, workers)._1)
        }
        joined.sorted == keys.toSeq
    })
  }

  test("property: importance draws stay in range with positive weights") {
    check(Prop.forAll(Gen.nonEmptyListOf(Gen.choose(0.0, 10.0)),
                      Gen.choose(1, 50), Gen.choose(0L, 1000L)) {
      (scores, m, seed) =>
        val draws = DownsamplingDriver.draw(scores.toArray, m, seed)
        draws.size == m &&
          draws.forall(d => d.index >= 0 && d.index < scores.size) &&
          draws.forall(_.weight > 0)
    }, tests = 50)
  }

  test("property: mix is deterministic and separates neighbours") {
    check(Prop.forAll(Gen.choose(Long.MinValue / 2, Long.MaxValue / 2)) { x =>
      Rng.mix(x) == Rng.mix(x) && Rng.mix(x) != Rng.mix(x + 1)
    }, tests = 100)
  }

  test("property: uniform is always in [0,1) and int in [0,n)") {
    check(Prop.forAll(Gen.long, Gen.choose(1, 1000)) { (s, n) =>
      val u = Rng.uniform(s)
      val i = Rng.int(s, n)
      u >= 0.0 && u < 1.0 && i >= 0 && i < n
    }, tests = 100)
  }

  test("property: yaml scalar roundtrip for simple maps") {
    import repro.core.yaml._
    val keyGen = Gen.identifier.suchThat(_.nonEmpty).map(_.take(12))
    check(Prop.forAll(Gen.nonEmptyMap(Gen.zip(keyGen, Gen.choose(-1000000, 1000000)))) { m =>
      val text   = m.map { case (k, v) => s"$k: $v" }.mkString("\n")
      val parsed = Yaml.parse(text)
      m.forall { case (k, v) => parsed(k).int == v }
    })
  }

  test("property: model storage roundtrips arbitrary weight vectors") {
    check(Prop.forAll(Gen.nonEmptyListOf(Gen.choose(-1e6, 1e6))) { ws =>
      TestUtil.withTmpDir { dir =>
        val ms = new repro.modelstorage.ModelStorage(fs, dir, fullModelEverySteps = 2)
        val w0 = ws.toArray
        val w1 = ws.map(_ * 1.0000001).toArray
        ms.store(0, w0); ms.store(1, w1)
        java.util.Arrays.equals(ms.load(0), w0) && java.util.Arrays.equals(ms.load(1), w1)
      }
    }, tests = 20)
  }

  test("property: amount trigger fires exactly floor(total/n) times") {
    check(Prop.forAll(Gen.choose(1, 50), Gen.choose(0, 500)) { (n, total) =>
      val t = new repro.core.triggers.DataAmountTrigger(n)
      val samples = (0 until total).map(i => repro.selector.NewSample(i.toLong, 0, i.toLong))
      samples.grouped(7).map(g => t.inform(g).size).sum == total / n
    }, tests = 50)
  }
}
