package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir

class StorageServiceSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  /** n files of m 16-byte records each; label(i,j) = file i * 1000 + idx j. */
  private def setup(dir: String, nFiles: Int, perFile: Int): (SampleRegistry, IndexedSeq[SampleMeta]) = {
    val r = new SampleRegistry
    val metas = (0 until nFiles).flatMap { f =>
      val bytes = new Array[Byte](perFile * 16)
      val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
      (0 until perFile).foreach(j => bb.putInt(j * 16, f * 1000 + j))
      fs.write(s"$dir/f$f.bin", bytes)
      r.ingestFile(fs, s"$dir/f$f.bin", FileWrapperType.Binary(16))
    }
    (r, metas)
  }

  test("retrieveAll returns every requested key exactly once") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 4, 50)
      val svc  = new StorageService(r, fs, sendBufferSize = 16)
      val keys = metas.map(_.key).filter(_ % 3 == 0).toArray
      val got  = svc.retrieveAll(keys, nThreads = 1)
      assert(got.keys.sorted.toSeq == keys.sorted.toSeq)
      r.close()
    }
  }

  test("payload content and labels match the source records") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 3, 20)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 2)
      val byKey = got.keys.zipWithIndex.toMap
      metas.foreach { m =>
        val i = byKey(m.key)
        assert(got.labels(i) == m.label)
        val lbl = ByteBuffer.wrap(got.payloads(i)).order(ByteOrder.LITTLE_ENDIAN).getInt
        assert(lbl.toLong == m.label)
      }
      r.close()
    }
  }

  test("multi-threaded retrieval covers all keys") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 6, 100)
      val svc = new StorageService(r, fs, sendBufferSize = 32)
      (1 to 8).foreach { t =>
        val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = t)
        assert(got.keys.sorted.toSeq == metas.map(_.key).sorted)
      }
      r.close()
    }
  }

  test("streamed batches respect the send buffer size") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 2, 50)
      val svc     = new StorageService(r, fs, sendBufferSize = 10)
      val batches = svc.retrieve(metas.map(_.key).toArray, nThreads = 1).toSeq
      assert(batches.forall(_.size <= 10))
      assert(batches.map(_.size).sum == 100)
      r.close()
    }
  }

  test("arbitrary key subsets across files work") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 5, 40)
      val svc  = new StorageService(r, fs)
      val keys = Array(metas(3).key, metas(199).key, metas(77).key, metas(120).key)
      val got  = svc.retrieveAll(keys, nThreads = 3)
      assert(got.keys.sorted.toSeq == keys.sorted.toSeq)
      r.close()
    }
  }

  test("empty key set yields an empty iterator") {
    withTmpDir { dir =>
      val (r, _) = setup(dir, 1, 5)
      val svc = new StorageService(r, fs)
      assert(svc.retrieve(Array.empty, 4).isEmpty)
      r.close()
    }
  }

  test("unknown key raises a NoSuchElementException") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 1, 5)
      val svc = new StorageService(r, fs)
      val ex = intercept[NoSuchElementException] {
        svc.retrieve(Array(metas.last.key + 1000), 1).toSeq
      }
      assert(ex.getMessage.contains("unknown sample keys"))
      r.close()
    }
  }

  test("more threads than keys still works") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 1, 3)
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 8)
      assert(got.size == 3)
      r.close()
    }
  }

  test("duplicate retrievals are deterministic in content") {
    withTmpDir { dir =>
      val (r, metas) = setup(dir, 3, 30)
      val svc  = new StorageService(r, fs, sendBufferSize = 16)
      val keys = metas.map(_.key).toArray
      def sequence(n: Int): Seq[(Seq[Long], Seq[Long], Seq[Seq[Byte]])] =
        svc.retrieve(keys, n).map(b => (b.keys.toSeq, b.labels.toSeq, b.payloads.toSeq.map(_.toSeq))).toSeq
      for (n <- Seq(1, 2, 8)) {
        val first = sequence(n)
        // Parts of ceil(90 / n) keys in split order, each in file order and
        // cut into send buffers of 16.
        val per = (keys.length + n - 1) / n
        assert(first.map(_._1) == keys.toSeq.grouped(per).flatMap(_.grouped(16)).toSeq, s"nThreads=$n")
        (0 until 3).foreach(_ => assert(sequence(n) == first, s"nThreads=$n"))
      }
      r.close()
    }
  }

  test("single-sample files retrieve correctly") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      val metas = (0 until 10).flatMap { i =>
        fs.write(s"$dir/s$i.bin", Array.fill(8)(i.toByte))
        fs.write(s"$dir/s$i.bin.label", i.toString.getBytes)
        r.ingestFile(fs, s"$dir/s$i.bin", FileWrapperType.SingleSample)
      }
      val svc = new StorageService(r, fs)
      val got = svc.retrieveAll(metas.map(_.key).toArray, nThreads = 2)
      val byKey = got.keys.zipWithIndex.toMap
      metas.foreach { m =>
        val i = byKey(m.key)
        assert(got.labels(i) == m.label)
        assert(got.payloads(i).forall(_ == m.label.toByte))
      }
      r.close()
    }
  }

  test("one thread retrieves a 12 000-record file in file order with exact payloads") {
    withTmpDir { dir =>
      val n     = 12000
      val bytes = new Array[Byte](n * 24)
      val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
      (0 until n).foreach { j => bb.putInt(j * 24, j % 7); bb.putLong(j * 24 + 8, j * 31L + 5) }
      fs.write(s"$dir/big.bin", bytes)
      val r     = new SampleRegistry
      val metas = r.ingestFile(fs, s"$dir/big.bin", FileWrapperType.Binary(24))
      val svc   = new StorageService(r, fs, sendBufferSize = 1000)
      val got   = svc.retrieveAll(metas.map(_.key).reverse.toArray, nThreads = 1)
      assert(got.keys.toSeq == metas.map(_.key))
      (0 until n).foreach { j =>
        assert(got.labels(j) == j % 7)
        assert(got.payloads(j).sameElements(bytes.slice(j * 24, (j + 1) * 24)), s"record $j")
      }
      r.close()
    }
  }
}
