package repro.selector

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.TestUtil.{ForwardingFs, withTmpDir}
import repro.storage.LocalFileSystemWrapper

class MetadataBackendSpec extends SparkSpec {
  private val fs = new LocalFileSystemWrapper

  private def samples(n: Int, trig: Int = 0): Seq[SeenSample] =
    (0 until n).map(i => SeenSample(i.toLong + 1 + trig * 1000, (i % 5).toLong, i.toLong, trig))

  /** Behaviour shared by all three backends. */
  private def backendContract(name: String, mk: String => MetadataBackend): Unit = {
    test(s"$name: persist + scanAll roundtrips ordered by key") {
      withTmpDir { dir =>
        val b = mk(dir)
        b.persist(samples(20).reverse)
        assert(b.scanAll() == samples(20))
        b.close()
      }
    }

    test(s"$name: count tracks persisted rows") {
      withTmpDir { dir =>
        val b = mk(dir)
        assert(b.count == 0)
        b.persist(samples(7))
        b.persist(samples(5, trig = 1))
        assert(b.count == 12)
        b.close()
      }
    }

    test(s"$name: scanTrigger filters by trigger") {
      withTmpDir { dir =>
        val b = mk(dir)
        b.persist(samples(4, trig = 0))
        b.persist(samples(6, trig = 1))
        assert(b.scanTrigger(0).size == 4)
        assert(b.scanTrigger(1).size == 6)
        assert(b.scanTrigger(1).forall(_.seenInTrigger == 1))
        b.close()
      }
    }

    test(s"$name: reset clears everything") {
      withTmpDir { dir =>
        val b = mk(dir)
        b.persist(samples(10))
        b.reset()
        assert(b.count == 0)
        assert(b.scanAll().isEmpty)
        // Usable after reset.
        b.persist(samples(3, trig = 2))
        assert(b.count == 3)
        b.close()
      }
    }

    test(s"$name: empty persist is a no-op") {
      withTmpDir { dir =>
        val b = mk(dir)
        b.persist(Seq.empty)
        assert(b.count == 0)
        b.close()
      }
    }

    test(s"$name: labels and timestamps survive the roundtrip") {
      withTmpDir { dir =>
        val b = mk(dir)
        val ss = Seq(SeenSample(5, 42, 1234567, 0), SeenSample(6, -1, 0, 0))
        b.persist(ss)
        assert(b.scanAll() == ss.sortBy(_.key))
        b.close()
      }
    }
  }

  backendContract("duckdb", _ => new DuckDbBackend)
  backendContract("local",  dir => new LocalBinaryBackend(fs, s"$dir/local"))
  backendContract("spark",  dir => new SparkParquetBackend(spark, s"$dir/pq"))

  test("duckdb: arbitrary SQL selection works") {
    val b = new DuckDbBackend
    b.persist(samples(20))
    val got = b.query("SELECT * FROM seen WHERE label = 2 ORDER BY key")
    assert(got.nonEmpty && got.forall(_.label == 2))
    b.close()
  }

  test("local: each persist call writes one file of every sample") {
    withTmpDir { dir =>
      val b = new LocalBinaryBackend(fs, s"$dir/local")
      b.persist(samples(101))
      b.persist(samples(7, trig = 1))
      assert(fs.list(s"$dir/local").size == 2)
      assert(b.count == 108)
      assert(b.scanAll().map(_.key) == (samples(101) ++ samples(7, trig = 1)).map(_.key))
      b.close()
    }
  }

  test("local: a failing write fails persist") {
    withTmpDir { dir =>
      val broken = new ForwardingFs {
        override def write(path: String, bytes: Array[Byte]): Unit =
          if (path.contains("chunk_00000001")) throw new java.io.IOException("disk full")
          else super.write(path, bytes)
      }
      val b  = new LocalBinaryBackend(broken, dir)
      b.persist(samples(40))
      val ex = intercept[java.io.IOException] { b.persist(samples(40, trig = 1)) }
      assert(ex.getMessage == "disk full")
    }
  }

  test("local: one persist call with mixed triggers splits per trigger") {
    withTmpDir { dir =>
      val b = new LocalBinaryBackend(fs, s"$dir/local")
      b.persist(samples(3, 0) ++ samples(4, 1))
      assert(b.scanTrigger(0).size == 3)
      assert(b.scanTrigger(1).size == 4)
      b.close()
    }
  }

  test("spark: df exposes the growing dataset to Spark SQL") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      b.persist(samples(10))
      b.persist(samples(10, trig = 1))
      val df = b.df
      assert(df.count() == 20)
      assert(df.filter("trig = 1").count() == 10)
      assert(df.columns.toSet == Set("key", "label", "ts", "trig"))
      b.close()
    }
  }

  test("spark: empty backend yields an empty, well-typed frame") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      assert(b.df.count() == 0)
      assert(b.df.columns.toSet == Set("key", "label", "ts", "trig"))
      b.close()
    }
  }

  test("factory resolves backend names") {
    withTmpDir { dir =>
      assert(StrategyFactory.backend("database", fs, dir, None).isInstanceOf[DuckDbBackend])
      assert(StrategyFactory.backend("local", fs, dir, None).isInstanceOf[LocalBinaryBackend])
      assert(StrategyFactory.backend("spark", fs, dir, Some(spark))
        .isInstanceOf[SparkParquetBackend])
      intercept[IllegalArgumentException] { StrategyFactory.backend("spark", fs, dir, None) }
      intercept[IllegalArgumentException] { StrategyFactory.backend("mystery", fs, dir, None) }
    }
  }
}
