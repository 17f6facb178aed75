package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir

class SampleRegistrySpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  private def binFile(path: String, labels: Seq[Int], recordSize: Int = 16): Unit = {
    val bytes = new Array[Byte](labels.size * recordSize)
    val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    labels.zipWithIndex.foreach { case (l, i) => bb.putInt(i * recordSize, l) }
    fs.write(path, bytes)
  }

  test("keys are unique and strictly increasing across files") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      binFile(s"$dir/a.bin", Seq(1, 2, 3))
      binFile(s"$dir/b.bin", Seq(4, 5))
      val m1 = r.ingestFile(fs, s"$dir/a.bin", FileWrapperType.Binary(16))
      val m2 = r.ingestFile(fs, s"$dir/b.bin", FileWrapperType.Binary(16))
      val keys = (m1 ++ m2).map(_.key)
      assert(keys == keys.sorted && keys.distinct == keys)
      assert(r.numSamples == 5)
      r.close()
    }
  }

  test("ingestFile extracts labels via the wrapper") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      binFile(s"$dir/a.bin", Seq(7, 8, 9))
      val metas = r.ingestFile(fs, s"$dir/a.bin", FileWrapperType.Binary(16))
      assert(metas.map(_.label) == Seq(7L, 8L, 9L))
      assert(metas.map(_.indexInFile) == Seq(0, 1, 2))
      r.close()
    }
  }

  test("ingestPrecomputed assigns timestamps via the callback") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = r.ingestPrecomputed(s"$dir/x.bin", FileWrapperType.Binary(16),
        IndexedSeq(1L, 2L), i => 100L + i)
      assert(metas.map(_.timestampSec) == Seq(100L, 101L))
      r.close()
    }
  }

  test("lookup resolves keys sorted by (file, idx)") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      binFile(s"$dir/a.bin", Seq(1, 2, 3))
      binFile(s"$dir/b.bin", Seq(4, 5))
      val all  = r.ingestFile(fs, s"$dir/a.bin", FileWrapperType.Binary(16)) ++
                 r.ingestFile(fs, s"$dir/b.bin", FileWrapperType.Binary(16))
      val conn = r.duplicateConnection()
      val got  = r.lookup(conn, Array(all(4).key, all(0).key, all(3).key))
      conn.close()
      assert(got.map(_.key).toSeq == Seq(all(0).key, all(3).key, all(4).key))
      assert(got.map(_.fileId).toSeq == Seq(0, 1, 1))
      r.close()
    }
  }

  test("lookup of empty key set is empty") {
    val r    = new SampleRegistry
    val conn = r.duplicateConnection()
    assert(r.lookup(conn, Array.empty).isEmpty)
    conn.close(); r.close()
  }

  test("concurrent lookups on duplicated connections work") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      binFile(s"$dir/a.bin", (0 until 200).map(_ % 5))
      val metas = r.ingestFile(fs, s"$dir/a.bin", FileWrapperType.Binary(16))
      val errors = new java.util.concurrent.atomic.AtomicInteger(0)
      val threads = (0 until 4).map { t =>
        new Thread(() => {
          try {
            val conn = r.duplicateConnection()
            val keys = metas.map(_.key).filter(_ % 4 == t).toArray
            val got  = r.lookup(conn, keys)
            if (got.length != keys.length) errors.incrementAndGet()
            conn.close()
          } catch { case _: Throwable => errors.incrementAndGet() }
        })
      }
      threads.foreach(_.start()); threads.foreach(_.join())
      assert(errors.get() == 0)
      r.close()
    }
  }

  test("deleteSamples removes keys from lookups and time scans") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      binFile(s"$dir/a.bin", Seq(1, 2, 3))
      val metas = r.ingestFile(fs, s"$dir/a.bin", FileWrapperType.Binary(16))
      assert(r.deleteSamples(Seq(metas(1).key)) == 1)
      assert(r.allSamplesByTime().map(_.key) == Seq(metas(0).key, metas(2).key))
      r.close()
    }
  }

  test("allSamplesByTime orders by (ts, key)") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      r.ingestPrecomputed(s"$dir/a.bin", FileWrapperType.Binary(16),
        IndexedSeq(1L, 2L), i => 10L - i) // ts 10, 9
      r.ingestPrecomputed(s"$dir/b.bin", FileWrapperType.Binary(16),
        IndexedSeq(3L), _ => 9L)
      val ts = r.allSamplesByTime().map(m => (m.timestampSec, m.key))
      assert(ts == ts.sorted)
      r.close()
    }
  }

  test("fileMeta returns path and wrapper; unknown id fails") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      r.ingestPrecomputed(s"$dir/a.bin", FileWrapperType.Binary(32), IndexedSeq(1L))
      val fm = r.fileMeta(0)
      assert(fm.path == s"$dir/a.bin")
      assert(fm.wrapperType == FileWrapperType.Binary(32))
      intercept[NoSuchElementException] { r.fileMeta(99) }
      r.close()
    }
  }

  test("fileMeta reads race-free with ingest; files stay in id order") {
    val r         = new SampleRegistry
    val published = new java.util.concurrent.atomic.AtomicInteger(0)
    val failure   = new java.util.concurrent.atomic.AtomicReference[Throwable](null)
    val readers = (0 until 3).map { _ =>
      val t = new Thread(() => {
        try while (published.get() < 300) {
          val n = published.get()
          if (n > 0) {
            val id = n - 1
            assert(r.fileMeta(id).path == s"f$id")
          }
        } catch { case e: Throwable => failure.compareAndSet(null, e) }
      })
      t.start(); t
    }
    (0 until 300).foreach { i =>
      r.ingestPrecomputed(s"f$i", FileWrapperType.SingleSample, IndexedSeq(i.toLong))
      published.set(i + 1)
    }
    readers.foreach(_.join())
    assert(failure.get() == null, String.valueOf(failure.get()))
    assert(r.files.map(_.fileId) == (0 until 300))
    assert(r.files.map(_.path) == (0 until 300).map(i => s"f$i"))
    r.close()
  }
}
