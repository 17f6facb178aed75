package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import org.duckdb.DuckDBConnection
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.{ForwardingFs, withTmpDir}
import repro.util.Rng

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

  test("a Binary ingest reads each file with one readAll and no ranged read") {
    withTmpDir { dir =>
      val readAlls = new java.util.concurrent.ConcurrentHashMap[String, Integer]()
      var ranged   = 0
      val countingFs = new ForwardingFs {
        override def read(path: String, offset: Long, length: Int): Array[Byte] = {
          ranged += 1; super.read(path, offset, length)
        }
        override def readAll(path: String): Array[Byte] = {
          readAlls.merge(path, 1, (a, b) => a + b); super.readAll(path)
        }
      }
      val r     = new SampleRegistry
      val paths = (0 until 3).map(f => s"$dir/f$f.bin")
      paths.zipWithIndex.foreach { case (p, f) => binFile(p, (0 until 40 + f).map(_ * 3 + f), recordSize = 24) }
      val metas = paths.map(p => r.ingestFile(countingFs, p, FileWrapperType.Binary(24)))
      assert(ranged == 0)
      assert(paths.map(p => readAlls.getOrDefault(p, 0).intValue) == Seq(1, 1, 1))
      paths.indices.foreach { f =>
        assert(metas(f).map(_.label) == (0 until 40 + f).map(i => (i * 3 + f).toLong))
      }
      r.close()
    }
  }

  test("ingest fails on malformed files and registers nothing") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      // A binary file whose size is not a multiple of the record size.
      fs.write(s"$dir/odd.bin", new Array[Byte](16 * 3 + 5))
      intercept[IllegalArgumentException] { r.ingestFile(fs, s"$dir/odd.bin", FileWrapperType.Binary(16)) }
      // A single-sample file whose payload is missing.
      fs.write(s"$dir/gone.jpg.label", "3".getBytes)
      intercept[java.nio.file.NoSuchFileException] {
        r.ingestFile(fs, s"$dir/gone.jpg", FileWrapperType.SingleSample)
      }
      // A label sidecar that does not parse.
      fs.write(s"$dir/bad.jpg", Array[Byte](1, 2))
      fs.write(s"$dir/bad.jpg.label", "three".getBytes)
      intercept[NumberFormatException] { r.ingestFile(fs, s"$dir/bad.jpg", FileWrapperType.SingleSample) }
      assert(r.numSamples == 0 && r.files.isEmpty)
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

  test("samplesByTime equals allSamplesByTime with deletions and runs of equal timestamps") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      def columns = { val c = r.samplesByTime(); (c.from until c.until).map(i => (c.keys(i), c.labels(i), c.ts(i))) }
      def rows = r.allSamplesByTime().map(m => (m.key, m.label, m.timestampSec))
      // Ascending timestamps: the replay order is the key order.
      r.ingestPrecomputed(s"$dir/a.bin", FileWrapperType.Binary(16), IndexedSeq.tabulate(50)(_.toLong), _.toLong)
      assert(columns == rows && rows.map(_._1) == (1L to 50L))
      // Files whose timestamps run backwards, interleave and repeat in runs.
      (0 until 40).foreach { f =>
        r.ingestPrecomputed(s"$dir/f$f.bin", FileWrapperType.Binary(16),
          IndexedSeq.tabulate(1 + f % 7)(i => (f * 10 + i).toLong), i => Math.floorMod(Rng.mix2(f, i), 9L) / 3)
      }
      r.deleteSamples((1L to r.numSamples).filter(k => Rng.mix(k) % 5 == 0))
      val expected = rows
      assert(expected.map(e => (e._3, e._1)) == expected.map(e => (e._3, e._1)).sorted)
      assert(expected.map(_._3).distinct.size < expected.size, "no run of equal timestamps")
      assert(columns == expected)
      r.close()
    }
  }

  test("locate gives each row the position of its key in the request, sorted or not") {
    withTmpDir { dir =>
      val r = new SampleRegistry
      (0 until 5).foreach(f => r.ingestPrecomputed(s"$dir/f$f.bin", FileWrapperType.Binary(16),
        IndexedSeq.tabulate(20)(_.toLong)))
      r.deleteSamples(Seq(7L, 40L))
      val requests = Seq((1L to 100L).toArray, Array(90L, 3L, 7L, 3L, 0L, 55L, 101L, 40L, 12L),
        (1L to 100L).map(k => Rng.mix(k)).zip(1L to 100L).sortBy(_._1).map(_._2).toArray)
      requests.foreach { keys =>
        val from = 1
        val l = r.locate(keys, from, keys.length)
        val got = (0 until l.size).map(i => (l.key(i), l.position(i)))
        val expected = (from until keys.length).map(p => (keys(p), p))
          .filter { case (k, _) => k >= 1 && k <= 100 && k != 7 && k != 40 }.sorted
        assert(got == expected)
        assert((0 until l.size).forall(i => l.fileId(i) == (l.key(i) - 1) / 20 && l.indexInFile(i) == (l.key(i) - 1) % 20))
      }
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
    val sizes     = (0 until 300).map(i => 1 + i % 7)
    val firstKey  = sizes.scanLeft(1L)(_ + _) // firstKey(i): key of file i's sample 0
    val published = new java.util.concurrent.atomic.AtomicInteger(0)
    val failure   = new java.util.concurrent.atomic.AtomicReference[Throwable](null)
    val fileReaders = (0 until 3).map { _ =>
      () => while (published.get() < 300) {
        val n = published.get()
        if (n > 0) {
          val id = n - 1
          assert(r.fileMeta(id).path == s"f$id")
        }
      }
    }
    // Lookups of already-ingested keys, in random order with duplicates,
    // must return every row, complete and sorted by (file, idx).
    val lookupReaders = (0 until 2).map { t =>
      () => {
        val rnd = new scala.util.Random(t)
        while (published.get() < 300) {
          val n = published.get()
          if (n > 0) {
            val keys = Array.fill(1 + rnd.nextInt(64))(1L + rnd.nextInt((firstKey(n) - 1).toInt))
            val got  = r.lookup(keys)
            assert(got.map(_.key).toSeq == keys.sorted.toSeq)
            got.foreach { m =>
              val file = firstKey.lastIndexWhere(_ <= m.key)
              assert(m.fileId == file && m.indexInFile == (m.key - firstKey(file)).toInt)
              assert(m.label == m.key * 3 && m.timestampSec == file.toLong)
            }
            assert(got.map(m => (m.fileId, m.indexInFile)).toSeq ==
              got.map(m => (m.fileId, m.indexInFile)).toSeq.sorted)
          }
        }
      }
    }
    val readers = (fileReaders ++ lookupReaders).map { body =>
      val t = new Thread(() => {
        try body() catch { case e: Throwable => failure.compareAndSet(null, e) }
      })
      t.start(); t
    }
    (0 until 300).foreach { i =>
      r.ingestPrecomputed(s"f$i", FileWrapperType.SingleSample,
        IndexedSeq.tabulate(sizes(i))(j => (firstKey(i) + j) * 3), _ => i.toLong)
      published.set(i + 1)
    }
    readers.foreach(_.join())
    assert(failure.get() == null, String.valueOf(failure.get()))
    assert(r.files.map(_.fileId) == (0 until 300))
    assert(r.files.map(_.path) == (0 until 300).map(i => s"f$i"))
    r.close()
  }

  /** The temp-table join that resolved keys before the key index, run on
    * the `samples` table of `conn`: the reference for `lookup`.
    */
  private def sqlLookup(conn: DuckDBConnection, keys: Array[Long]): Seq[SampleMeta] = {
    val st = conn.createStatement()
    try {
      st.execute("CREATE TABLE req (key BIGINT)")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "req")
      keys.foreach { k => app.beginRow(); app.append(k); app.endRow() }
      app.close()
      rows(st.executeQuery(
        """SELECT r.key, s.file_id, s.idx, s.label, s.ts
          |FROM req r JOIN samples s ON r.key = s.key
          |ORDER BY s.file_id, s.idx""".stripMargin))
    } finally {
      st.execute("DROP TABLE req"); st.close()
    }
  }

  private def rows(rs: java.sql.ResultSet): Seq[SampleMeta] = {
    val out = Seq.newBuilder[SampleMeta]
    while (rs.next())
      out += SampleMeta(rs.getLong(1), rs.getInt(2), rs.getInt(3), rs.getLong(4), rs.getLong(5))
    rs.close()
    out.result()
  }

  test("lookup and allSamplesByTime match SQL over the samples table") {
    val r = new SampleRegistry
    // 4 threads ingest 40 files each at once: sizes 1..50, labels and
    // timestamps random, timestamps with many ties.
    val inputs = new java.util.concurrent.ConcurrentHashMap[String, (IndexedSeq[Long], IndexedSeq[Long])]()
    val ingesters = (0 until 4).map { t =>
      val th = new Thread(() => {
        val rnd = new scala.util.Random(100 + t)
        (0 until 40).foreach { f =>
          val n = 1 + rnd.nextInt(50)
          val labels = IndexedSeq.fill(n)(rnd.nextInt(10).toLong)
          val ts     = IndexedSeq.fill(n)(rnd.nextInt(20).toLong)
          inputs.put(s"t${t}_f$f", (labels, ts))
          r.ingestPrecomputed(s"t${t}_f$f", FileWrapperType.SingleSample, labels, ts)
        }
      })
      th.start(); th
    }
    ingesters.foreach(_.join())
    assert(r.files.size == 160)

    // The reference `samples` table, built from the ingested inputs alone:
    // keys run consecutively through the files in file-id order.
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = java.sql.DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    val st   = conn.createStatement()
    st.execute("CREATE TABLE samples (key BIGINT PRIMARY KEY, file_id INTEGER, idx INTEGER, label BIGINT, ts BIGINT)")
    val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "samples")
    var key = 0L
    r.files.foreach { f =>
      val (labels, ts) = inputs.get(f.path)
      labels.indices.foreach { i =>
        key += 1
        app.beginRow()
        app.append(key); app.append(f.fileId); app.append(i); app.append(labels(i)); app.append(ts(i))
        app.endRow()
      }
    }
    app.close()

    val numKeys = r.numSamples
    assert(numKeys == key)
    val rnd     = new scala.util.Random(7)
    val deleted = Seq.fill(200)(1L + rnd.nextInt(numKeys.toInt)).distinct
    assert(r.deleteSamples(deleted) == deleted.size)
    assert(r.deleteSamples(deleted.take(5) :+ (numKeys + 1)) == 0)
    val del = conn.prepareStatement("DELETE FROM samples WHERE key = ?")
    deleted.foreach { k => del.setLong(1, k); del.addBatch() }
    del.executeBatch(); del.close()

    (1 to 20).foreach { seed =>
      val rnd     = new scala.util.Random(seed)
      val known   = Array.fill(rnd.nextInt(500))(1L + rnd.nextInt(numKeys.toInt))
      val dups    = known.take(rnd.nextInt(50))
      val gone    = rnd.shuffle(deleted).take(rnd.nextInt(30))
      val unknown = Seq(0L, -3L, numKeys + 1, numKeys + 1 + rnd.nextInt(1000), Long.MaxValue)
      val keys    = rnd.shuffle((known ++ dups ++ gone ++ unknown).toSeq).toArray
      assert(r.lookup(keys).toSeq == sqlLookup(conn, keys), s"seed $seed")
    }

    val byTime = rows(st.executeQuery("SELECT key, file_id, idx, label, ts FROM samples ORDER BY ts, key"))
    st.close(); conn.close()
    assert(byTime.size == numKeys - deleted.size)
    assert(r.allSamplesByTime() == byTime)
    r.close()
  }
}
