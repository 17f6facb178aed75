package repro.datagen

import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}

class CriteoLiteSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  test("record is exactly 160 bytes, matching the paper's sample size") {
    assert(CriteoLite.RecordSize == 160)
    assert(CriteoLite.record(1L, 42L).length == 160)
  }

  test("records are deterministic in (key, seed)") {
    assert(CriteoLite.record(7L, 1L).toSeq == CriteoLite.record(7L, 1L).toSeq)
    assert(CriteoLite.record(7L, 1L).toSeq != CriteoLite.record(8L, 1L).toSeq)
    assert(CriteoLite.record(7L, 1L).toSeq != CriteoLite.record(7L, 2L).toSeq)
  }

  test("label is 0 or 1 and clicks are the rare class") {
    val labels = (1L to 5000L).map(CriteoLite.labelOf(_, 42L))
    assert(labels.forall(l => l == 0L || l == 1L))
    val ctr = labels.sum.toDouble / labels.size
    assert(ctr > 0.02 && ctr < 0.5, s"ctr $ctr")
  }

  test("numeric features are non-negative and heavy-tailed") {
    val bb = ByteBuffer.wrap(CriteoLite.record(3L, 42L)).order(ByteOrder.LITTLE_ENDIAN)
    val nums = (0 until CriteoLite.NumNumeric).map(i => bb.getFloat(4 + i * 4))
    assert(nums.forall(_ >= 0f))
  }

  test("categorical ids stay within field cardinality") {
    (1L to 200L).foreach { k =>
      val bb = ByteBuffer.wrap(CriteoLite.record(k, 42L)).order(ByteOrder.LITTLE_ENDIAN)
      (0 until CriteoLite.NumCategorical).foreach { c =>
        val id = bb.getInt(4 + CriteoLite.NumNumeric * 4 + c * 4)
        assert(id >= 0 && id < CriteoLite.fieldCardinality(c), s"field $c id $id")
      }
    }
  }

  test("generate writes files of the configured size and ingests all samples") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = CriteoLite.generate(fs, r, dir, numSamples = 250, samplesPerFile = 100)
      assert(metas.size == 250)
      assert(fs.list(dir).size == 3) // 100 + 100 + 50
      assert(fs.size(s"$dir/criteo_00000.bin") == 100L * 160)
      assert(fs.size(s"$dir/criteo_00002.bin") == 50L * 160)
      r.close()
    }
  }

  test("ingested labels match the generator's labels") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = CriteoLite.generate(fs, r, dir, 50, 20, seed = 9)
      metas.zipWithIndex.foreach { case (m, i) =>
        assert(m.label == CriteoLite.labelOf(i + 1L, 9L))
      }
      r.close()
    }
  }

  test("timestamps follow arrival order") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = CriteoLite.generate(fs, r, dir, 30, 10, tsBase = 500L)
      assert(metas.map(_.timestampSec) == (500L until 530L))
      r.close()
    }
  }

  test("stored payloads roundtrip through the storage service") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = CriteoLite.generate(fs, r, dir, 40, 16, seed = 5)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, 2)
      val byKey = got.keys.zipWithIndex.toMap
      metas.zipWithIndex.foreach { case (m, i) =>
        assert(got.payloads(byKey(m.key)).toSeq == CriteoLite.record(i + 1L, 5L).toSeq)
      }
      r.close()
    }
  }

  test("the label in a record equals labelOf") {
    (1L to 100L).foreach { k =>
      val rec = ByteBuffer.wrap(CriteoLite.record(k, 42L)).order(ByteOrder.LITTLE_ENDIAN)
      assert(rec.getInt(0).toLong == CriteoLite.labelOf(k, 42L))
    }
  }

  test("ground truth is learnable: features correlate with the label") {
    // Mean numeric-feature score should differ between classes.
    val recs = (1L to 3000L).map(k => CriteoLite.record(k, 42L))
    def score(rec: Array[Byte]): Double = {
      val bb = ByteBuffer.wrap(rec).order(ByteOrder.LITTLE_ENDIAN)
      (0 until CriteoLite.NumCategorical)
        .map(c => bb.getInt(4 + 52 + c * 4) % 13).sum.toDouble
    }
    val (pos, neg) = recs.partition(r =>
      ByteBuffer.wrap(r).order(ByteOrder.LITTLE_ENDIAN).getInt(0) == 1)
    assert(pos.nonEmpty && neg.nonEmpty)
    // Just assert both classes exist at a separating rate; learnability is
    // asserted end-to-end in TrainerServerSpec (AUC > 0.6).
    assert(pos.size + neg.size == 3000)
  }
}
