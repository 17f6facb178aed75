package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir

class FileWrapperSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  /** A binary file of n records: label = i * 10, payload body = i bytes. */
  private def writeBinary(path: String, n: Int, recordSize: Int): Unit = {
    val bytes = new Array[Byte](n * recordSize)
    val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    (0 until n).foreach { i =>
      bb.putInt(i * recordSize, i * 10)
      (4 until recordSize).foreach(off => bytes(i * recordSize + off) = i.toByte)
    }
    fs.write(path, bytes)
  }

  // ---------------- BinaryFileWrapper ----------------

  test("binary: numSamples from file size") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 7, 16)
      val w = new BinaryFileWrapper(fs, s"$dir/a.bin", 16)
      assert(w.numSamples == 7)
    }
  }

  test("binary: rejects non-multiple file size") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.bin", new Array[Byte](17))
      intercept[IllegalArgumentException] { new BinaryFileWrapper(fs, s"$dir/a.bin", 16) }
    }
  }

  test("binary: rejects record size <= 4") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.bin", new Array[Byte](16))
      intercept[IllegalArgumentException] { new BinaryFileWrapper(fs, s"$dir/a.bin", 4) }
    }
  }

  test("binary: getSample returns the exact record") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 5, 16)
      val w = new BinaryFileWrapper(fs, s"$dir/a.bin", 16)
      val s3 = w.getSample(3)
      assert(s3.length == 16)
      assert(ByteBuffer.wrap(s3).order(ByteOrder.LITTLE_ENDIAN).getInt == 30)
      assert(s3(5) == 3.toByte)
    }
  }

  test("binary: getSample bounds checked") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 5, 16)
      val w = new BinaryFileWrapper(fs, s"$dir/a.bin", 16)
      intercept[IllegalArgumentException] { w.getSample(5) }
      intercept[IllegalArgumentException] { w.getSample(-1) }
    }
  }

  test("binary: getLabel parses little-endian int") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 5, 16)
      val w = new BinaryFileWrapper(fs, s"$dir/a.bin", 16)
      (0 until 5).foreach(i => assert(w.getLabel(i) == i * 10L))
    }
  }

  test("binary: getSamples coalesces adjacent runs correctly") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 20, 16)
      val w   = new BinaryFileWrapper(fs, s"$dir/a.bin", 16)
      val idx = Seq(0, 1, 2, 5, 9, 10, 11, 19)
      val got = w.getSamples(idx)
      assert(got.size == idx.size)
      got.zip(idx).foreach { case (payload, i) =>
        assert(ByteBuffer.wrap(payload).order(ByteOrder.LITTLE_ENDIAN).getInt == i * 10)
      }
    }
  }

  test("binary: getSamples of empty index list") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 3, 16)
      val w = new BinaryFileWrapper(fs, s"$dir/a.bin", 16)
      assert(w.getSamples(Seq.empty).isEmpty)
    }
  }

  test("binary: extractAll matches per-index reads") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 10, 24)
      val w   = new BinaryFileWrapper(fs, s"$dir/a.bin", 24)
      val all = w.extractAll()
      assert(all.size == 10)
      all.zipWithIndex.foreach { case (e, i) =>
        assert(e.label == i * 10L)
        assert(e.payload.toSeq == w.getSample(i).toSeq)
      }
    }
  }

  // ---------------- CsvFileWrapper ----------------

  test("csv: one sample per non-empty line") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.csv", "1,foo,9\n0,bar,8\n\n1,baz,7\n".getBytes)
      val w = new CsvFileWrapper(fs, s"$dir/a.csv", labelColumn = 0)
      assert(w.numSamples == 3)
    }
  }

  test("csv: label from the configured column") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.csv", "x,5\ny,17\n".getBytes)
      val w = new CsvFileWrapper(fs, s"$dir/a.csv", labelColumn = 1)
      assert(w.getLabel(0) == 5L && w.getLabel(1) == 17L)
    }
  }

  test("csv: payload is the full line bytes") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.csv", "1,foo\n0,bar\n".getBytes)
      val w = new CsvFileWrapper(fs, s"$dir/a.csv", labelColumn = 0)
      assert(new String(w.getSample(1)) == "0,bar")
    }
  }

  test("csv: custom delimiter") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.csv", "a|3\nb|4\n".getBytes)
      val w = new CsvFileWrapper(fs, s"$dir/a.csv", labelColumn = 1, delimiter = '|')
      assert(w.getLabel(1) == 4L)
    }
  }

  test("csv: out-of-range label column fails") {
    withTmpDir { dir =>
      fs.write(s"$dir/a.csv", "a,b\n".getBytes)
      val w = new CsvFileWrapper(fs, s"$dir/a.csv", labelColumn = 5)
      intercept[IllegalArgumentException] { w.getLabel(0) }
    }
  }

  // ---------------- SingleSampleFileWrapper ----------------

  test("single: whole file is the payload, label from sidecar") {
    withTmpDir { dir =>
      fs.write(s"$dir/img.bin", Array[Byte](1, 2, 3, 4))
      fs.write(s"$dir/img.bin.label", "42".getBytes)
      val w = new SingleSampleFileWrapper(fs, s"$dir/img.bin")
      assert(w.numSamples == 1)
      assert(w.getSample(0).toSeq == Seq[Byte](1, 2, 3, 4))
      assert(w.getLabel(0) == 42L)
    }
  }

  test("single: index other than 0 fails") {
    withTmpDir { dir =>
      fs.write(s"$dir/img.bin", Array[Byte](1))
      val w = new SingleSampleFileWrapper(fs, s"$dir/img.bin")
      intercept[IllegalArgumentException] { w.getSample(1) }
      intercept[IllegalArgumentException] { w.getLabel(1) }
    }
  }

  test("single: extractAll yields the one sample") {
    withTmpDir { dir =>
      fs.write(s"$dir/img.bin", Array[Byte](7, 7))
      fs.write(s"$dir/img.bin.label", " 3 ".getBytes)
      val all = new SingleSampleFileWrapper(fs, s"$dir/img.bin").extractAll()
      assert(all.size == 1 && all.head.label == 3L)
    }
  }

  test("labels gives every wrapper's per-index labels") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 6, 16)
      fs.write(s"$dir/a.csv", "1,x\n0,y\n\n5,z\n".getBytes)
      fs.write(s"$dir/img.bin", Array[Byte](7))
      fs.write(s"$dir/img.bin.label", " 9 ".getBytes)
      Seq(new BinaryFileWrapper(fs, s"$dir/a.bin", 16), new CsvFileWrapper(fs, s"$dir/a.csv", 0),
          new SingleSampleFileWrapper(fs, s"$dir/img.bin")).foreach { w =>
        assert(w.labels() == (0 until w.numSamples).map(w.getLabel))
      }
      assert(new CsvFileWrapper(fs, s"$dir/a.csv", 0).labels() == Seq(1L, 0L, 5L))
    }
  }

  // ---------------- FileWrapperType ----------------

  test("factory instantiates the right wrapper") {
    withTmpDir { dir =>
      writeBinary(s"$dir/a.bin", 2, 16)
      fs.write(s"$dir/a.csv", "1,x\n".getBytes)
      fs.write(s"$dir/one.bin", Array[Byte](1))
      assert(FileWrapperType.instantiate(FileWrapperType.Binary(16), fs, s"$dir/a.bin")
        .isInstanceOf[BinaryFileWrapper])
      assert(FileWrapperType.instantiate(FileWrapperType.Csv(0), fs, s"$dir/a.csv")
        .isInstanceOf[CsvFileWrapper])
      assert(FileWrapperType.instantiate(FileWrapperType.SingleSample, fs, s"$dir/one.bin")
        .isInstanceOf[SingleSampleFileWrapper])
    }
  }
}
