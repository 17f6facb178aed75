package repro.trainer

import java.nio.{ByteBuffer, ByteOrder}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.datagen.{ClocLite, CriteoLite}
import repro.storage.{FileMeta, LocalFileSystemWrapper, SampleRegistry}

class LocalFileDatasetSpec extends AnyFunSuite {
  private val fs           = new LocalFileSystemWrapper
  private val criteoParser = new CriteoBytesParser(16)
  private val clocParser   = new ClocBytesParser(8)

  /** Criteo-lite binary files of 50 samples each. */
  private def criteo(dir: String, n: Int): Seq[FileMeta] = {
    val r = new SampleRegistry
    CriteoLite.generate(fs, r, dir, n, samplesPerFile = 50)
    try r.files finally r.close()
  }

  /** CLOC-lite: one single-sample file plus a `.label` sidecar per sample,
    * `perYear` samples in each of two years.
    */
  private def cloc(dir: String, perYear: Int): Seq[FileMeta] = {
    val r = new SampleRegistry
    ClocLite.generate(fs, r, dir, perYear, numClasses = 5, featureDim = 8,
      years = 2004 to 2005)
    try r.files finally r.close()
  }

  private def dataset(files: Seq[FileMeta], parser: BytesParser, workers: Int,
                      batchSize: Int): LocalFileDataset =
    new LocalFileDataset(fs, files, parser, IdentityTransform, workers, batchSize)

  test("emits every sample of every file exactly once") {
    withTmpDir { dir =>
      val corpora = Seq(("criteo", criteo(s"$dir/criteo", 260), criteoParser, 260),
                        ("cloc", cloc(s"$dir/cloc", 35), clocParser, 70))
      for ((name, files, parser, total) <- corpora; workers <- Seq(1, 2, 4, 8)) {
        val n = dataset(files, parser, workers, batchSize = 32).batches().map(_.size).sum
        assert(n == total, s"$name workers=$workers delivered $n")
      }
    }
  }

  test("labels match the generator") {
    withTmpDir { dir =>
      val criteoFiles = criteo(s"$dir/criteo", 100)
      val clocFiles   = cloc(s"$dir/cloc", 20)
      val sidecars    = clocFiles.map(f => new String(fs.readAll(f.path + ".label")).trim.toInt)
      val cases = Seq(
        (criteoFiles, criteoParser, (1L to 100L).map(CriteoLite.labelOf(_, 42L).toInt)),
        (clocFiles, clocParser, sidecars))
      for ((files, parser, expect) <- cases) {
        val labels = dataset(files, parser, 2, 32).batches().flatMap(_.labels).toSeq.sorted
        assert(labels == expect.sorted)
      }
    }
  }

  test("batches alternate between workers, each in its files' order") {
    withTmpDir { dir =>
      val files = criteo(dir, 200) // 4 files: worker 0 reads 0 and 2, worker 1 reads 1 and 3
      val rs    = CriteoLite.RecordSize
      // Each worker's samples as (features, label), read straight from the bytes.
      val perWorker = Seq(Seq(0, 2), Seq(1, 3)).map(_.flatMap { f =>
        val bytes = fs.readAll(files(f).path)
        (0 until bytes.length / rs).map { i =>
          val rec = java.util.Arrays.copyOfRange(bytes, i * rs, (i + 1) * rs)
          (criteoParser.parse(rec).toSeq, ByteBuffer.wrap(rec).order(ByteOrder.LITTLE_ENDIAN).getInt)
        }
      })
      // 100 samples per worker in batches of 30: 30, 30, 30, 10 each, taken in turn.
      val expected = (0 until 4).flatMap(b => perWorker.map(_.slice(30 * b, 30 * b + 30)))
      val got = dataset(files, criteoParser, 2, batchSize = 30).batches()
        .map(b => b.features.toSeq.map(_.toSeq).zip(b.labels)).toSeq
      assert(got.map(_.size) == expected.map(_.size))
      assert(got == expected)
    }
  }

  test("more workers than files still delivers everything") {
    withTmpDir { dir =>
      val files = criteo(dir, 60) // 2 files
      assert(dataset(files, criteoParser, 6, 16).batches().map(_.size).sum == 60)
    }
  }

  test("weights default to 1 (no sample-level selection)") {
    withTmpDir { dir =>
      val files = criteo(dir, 50)
      assert(dataset(files, criteoParser, 1, 16).batches().flatMap(_.weights).forall(_ == 1.0))
    }
  }

  test("config validation") {
    intercept[IllegalArgumentException] {
      new LocalFileDataset(fs, Seq.empty, criteoParser, IdentityTransform, 0, 16)
    }
  }
}
