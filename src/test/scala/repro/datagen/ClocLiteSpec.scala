package repro.datagen

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}

class ClocLiteSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  test("class prior sums to one and is valid for every year") {
    ClocLite.Years.foreach { y =>
      val p = ClocLite.classPrior(24, y)
      assert(math.abs(p.sum - 1.0) < 1e-9)
      assert(p.forall(_ > 0))
    }
  }

  test("class prior shifts over the years (distribution shift)") {
    val p2004 = ClocLite.classPrior(24, 2004)
    val p2014 = ClocLite.classPrior(24, 2014)
    val tv = p2004.zip(p2014).map { case (a, b) => math.abs(a - b) }.sum / 2
    assert(tv > 0.1, s"total variation $tv should show real drift")
  }

  test("drawClass follows the year prior") {
    val n = 20000
    val counts = (0 until n).map(i => ClocLite.drawClass(8, 2010, i, 1L))
      .groupBy(identity).view.mapValues(_.size.toDouble / n).toMap
    val prior = ClocLite.classPrior(8, 2010)
    (0 until 8).foreach { c =>
      assert(math.abs(counts.getOrElse(c, 0.0) - prior(c)) < 0.02,
        s"class $c: drew ${counts.getOrElse(c, 0.0)}, prior ${prior(c)}")
    }
  }

  test("payload parses back to featureDim floats near the class mean") {
    val payload = ClocLite.payload(3, 2008, 17, featureDim = 32, seed = 5L)
    val x    = ClocLite.parse(payload)
    val mean = ClocLite.classMean(3, 2008, 32, 5L)
    assert(x.length == 32)
    val dist = math.sqrt(x.zip(mean).map { case (a, b) => (a - b) * (a - b) }.sum.toDouble)
    // Noise is N(0,1) per dim: expect ~sqrt(32) ≈ 5.7, allow generous slack.
    assert(dist < 12, s"sample too far from class mean: $dist")
  }

  test("class means differ between classes and drift across years") {
    val a = ClocLite.classMean(1, 2004, 64, 7L)
    val b = ClocLite.classMean(2, 2004, 64, 7L)
    val aLater = ClocLite.classMean(1, 2014, 64, 7L)
    def dist(u: Array[Float], v: Array[Float]) =
      math.sqrt(u.zip(v).map { case (x, y) => (x - y) * (x - y) }.sum.toDouble)
    assert(dist(a, b) > 1.5, "classes should be separated")
    val drift = dist(a, aLater)
    assert(drift > 0.5 && drift < dist(a, b),
      s"drift $drift should be real but smaller than class separation ${dist(a, b)}")
  }

  test("yearOfTimestamp inverts yearStartSec") {
    ClocLite.Years.foreach { y =>
      assert(ClocLite.yearOfTimestamp(ClocLite.yearStartSec(y)) == y)
      assert(ClocLite.yearOfTimestamp(ClocLite.yearStartSec(y) + 31535999L) == y)
    }
  }

  test("generate writes one file + sidecar per sample and ingests them") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = ClocLite.generate(fs, r, dir, samplesPerYear = 5, numClasses = 4,
        featureDim = 8, years = 2004 to 2006)
      assert(metas.size == 15)
      assert(fs.list(dir).size == 30) // payload + .label each
      r.close()
    }
  }

  test("generated timestamps fall within the right year") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = ClocLite.generate(fs, r, dir, 10, 4, 8, years = 2005 to 2007)
      metas.foreach { m =>
        val y = ClocLite.yearOfTimestamp(m.timestampSec)
        assert(y >= 2005 && y <= 2007)
      }
      assert(metas.map(m => ClocLite.yearOfTimestamp(m.timestampSec)).distinct.size == 3)
      r.close()
    }
  }

  test("generated labels match sidecar files and retrieval") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = ClocLite.generate(fs, r, dir, 6, 5, 8, years = 2004 to 2004)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, 2)
      val byKey = got.keys.zipWithIndex.toMap
      metas.foreach { m =>
        assert(got.labels(byKey(m.key)) == m.label)
        assert(ClocLite.parse(got.payloads(byKey(m.key))).length == 8)
      }
      r.close()
    }
  }

  test("drawClass stays in [0, numClasses)") {
    for (year <- ClocLite.Years; i <- 0 until 50) {
      val c = ClocLite.drawClass(6, year, i, 3L)
      assert(c >= 0 && c < 6, s"year $year, sample $i drew class $c")
    }
  }

  test("generation is deterministic in seed") {
    withTmpDir { dir1 =>
      withTmpDir { dir2 =>
        val r1 = new SampleRegistry; val r2 = new SampleRegistry
        val m1 = ClocLite.generate(fs, r1, dir1, 4, 3, 8, seed = 11, years = 2004 to 2005)
        val m2 = ClocLite.generate(fs, r2, dir2, 4, 3, 8, seed = 11, years = 2004 to 2005)
        assert(m1.map(_.label) == m2.map(_.label))
        r1.close(); r2.close()
      }
    }
  }
}
