package repro.selector

import java.nio.{ByteBuffer, ByteOrder}
import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.storage.FileSystemWrapper
import repro.util.Parallel

/** A sample as seen by the selector: storage key, label, event time, and
  * the (in-progress) trigger during which it arrived.
  */
final case class SeenSample(key: Long, label: Long, timestampSec: Long, seenInTrigger: Int)

/** Selector-side state store for presampling strategies (§4.1.2).
  *
  * The paper ships a Postgres backend (flexible, SQL-queryable, slow to
  * insert) and a C++ local binary backend (fast, append-only). This
  * reproduction adds a Spark/Parquet backend: each informed batch appends
  * to a growing Parquet dataset. Every policy reads any backend through
  * [[scanAll]], so each policy has one implementation.
  */
trait MetadataBackend extends AutoCloseable {
  /** Record a batch of newly seen samples. */
  def persist(samples: Seq[SeenSample]): Unit

  /** Number of samples currently recorded. */
  def count: Long

  /** All recorded samples, ordered by key. */
  def scanAll(): IndexedSeq[SeenSample]

  /** Samples recorded during `triggerId`, ordered by key. */
  def scanTrigger(triggerId: Int): IndexedSeq[SeenSample]

  /** Drop all recorded state (reset-after-trigger). */
  def reset(): Unit

  override def close(): Unit = ()
}

/** Embedded-SQL backend — the stand-in for the paper's Postgres backend.
  *
  * Inserts are batched prepared statements on a single writer connection;
  * like the paper's Postgres backend it is the most flexible (policies can
  * be a SQL statement) and the slowest to ingest, which benchmark T6
  * quantifies against the binary backend.
  */
final class DuckDbBackend extends MetadataBackend {
  Class.forName("org.duckdb.DuckDBDriver")
  private val conn = DriverManager.getConnection("jdbc:duckdb:")
  conn.createStatement().execute(
    "CREATE TABLE seen (key BIGINT, label BIGINT, ts BIGINT, trig INTEGER)")

  /** SQL bulk insertion (§4.1.2): multi-row VALUES statements, the
    * embedded-DB analog of the paper's Postgres bulk-insert optimization.
    * Row-at-a-time JDBC batching is ~50× slower on this path.
    */
  override def persist(samples: Seq[SeenSample]): Unit = {
    val st = conn.createStatement()
    samples.grouped(1000).foreach { chunk =>
      val values = chunk.iterator
        .map(s => s"(${s.key}, ${s.label}, ${s.timestampSec}, ${s.seenInTrigger})")
        .mkString(", ")
      st.execute(s"INSERT INTO seen VALUES $values")
    }
    st.close()
  }

  override def count: Long = {
    val rs = conn.createStatement().executeQuery("SELECT count(*) FROM seen")
    rs.next(); val c = rs.getLong(1); rs.close(); c
  }

  override def scanAll(): IndexedSeq[SeenSample] = query("SELECT * FROM seen ORDER BY key")

  override def scanTrigger(triggerId: Int): IndexedSeq[SeenSample] =
    query(s"SELECT * FROM seen WHERE trig = $triggerId ORDER BY key")

  /** Run an arbitrary SQL selection over the `seen` table — the paper's
    * "many policies can be expressed using SQL statements".
    */
  def query(sql: String): IndexedSeq[SeenSample] = {
    val st = conn.createStatement()
    val rs = st.executeQuery(sql)
    val out = IndexedSeq.newBuilder[SeenSample]
    while (rs.next())
      out += SeenSample(rs.getLong(1), rs.getLong(2), rs.getLong(3), rs.getInt(4))
    rs.close(); st.close()
    out.result()
  }

  override def reset(): Unit = conn.createStatement().execute("DELETE FROM seen")

  override def close(): Unit = conn.close()
}

/** Append-only binary backend — the stand-in for the paper's multithreaded
  * C++ `LocalMetadataBackend` writing fixed-size records to local NVMe.
  *
  * Each `persist` call writes one chunk per writer thread as 24-byte
  * little-endian (key, label, ts) records into per-trigger files; scans
  * read the chunks back with bulk reads. Ingestion is orders of magnitude
  * faster than the SQL backend at the cost of only supporting simple
  * scan-shaped policies.
  */
final class LocalBinaryBackend(fs: FileSystemWrapper, dir: String,
                               numThreads: Int = 4) extends MetadataBackend {
  require(numThreads > 0, "numThreads must be positive")
  private val RecordBytes = 24
  private var chunkSeq    = 0L

  private def chunkName(trig: Int, chunk: Long, tid: Int): String =
    f"$dir/trigger_$trig%06d_chunk_$chunk%08d_t$tid%02d.bin"

  override def persist(samples: Seq[SeenSample]): Unit = synchronized {
    if (samples.isEmpty) return
    val byTrigger = samples.groupBy(_.seenInTrigger)
    byTrigger.foreach { case (trig, ss) =>
      val chunk  = chunkSeq; chunkSeq += 1
      val per    = (ss.length + numThreads - 1) / numThreads
      val groups = ss.grouped(per).toIndexedSeq
      Parallel.runAll("local-backend-writer", groups.zipWithIndex.map { case (g, tid) => () =>
        val bytes = new Array[Byte](g.length * RecordBytes)
        val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
        g.foreach { s => bb.putLong(s.key); bb.putLong(s.label); bb.putLong(s.timestampSec) }
        fs.write(chunkName(trig, chunk, tid), bytes)
      })
    }
  }

  override def count: Long = fs.list(dir).map(fs.size(_) / RecordBytes).sum

  override def scanAll(): IndexedSeq[SeenSample] =
    fs.list(dir).flatMap(readChunk).sortBy(_.key).toIndexedSeq

  override def scanTrigger(triggerId: Int): IndexedSeq[SeenSample] = {
    val prefix = f"trigger_$triggerId%06d_"
    fs.list(dir)
      .filter(p => p.substring(p.lastIndexOf('/') + 1).startsWith(prefix))
      .flatMap(readChunk).sortBy(_.key).toIndexedSeq
  }

  private def readChunk(path: String): Seq[SeenSample] = {
    val name = path.substring(path.lastIndexOf('/') + 1)
    val trig = name.stripPrefix("trigger_").take(6).toInt
    val bytes = fs.readAll(path)
    val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    (0 until bytes.length / RecordBytes).map { _ =>
      SeenSample(bb.getLong(), bb.getLong(), bb.getLong(), trig)
    }
  }

  override def reset(): Unit = synchronized { fs.list(dir).foreach(fs.delete) }
}

/** Spark/Parquet backend: the selector metadata as a growing Parquet
  * dataset. Every informed batch appends one Parquet write, and scans read
  * the accumulated dataset back through Spark; [[df]] exposes it as a
  * DataFrame.
  */
final class SparkParquetBackend(spark: SparkSession, dir: String) extends MetadataBackend {
  import spark.implicits._
  private var batches = 0L

  /** The growing dataset: columns (key, label, ts, trig). Empty schema-
    * compatible frame before the first persist.
    */
  def df: DataFrame =
    if (batches == 0) Seq.empty[(Long, Long, Long, Int)].toDF("key", "label", "ts", "trig")
    else spark.read.parquet(dir)

  override def persist(samples: Seq[SeenSample]): Unit = synchronized {
    if (samples.isEmpty) return
    samples.map(s => (s.key, s.label, s.timestampSec, s.seenInTrigger))
      .toDF("key", "label", "ts", "trig")
      .write.mode("append").parquet(dir)
    batches += 1
  }

  override def count: Long = if (batches == 0) 0L else df.count()

  override def scanAll(): IndexedSeq[SeenSample] = collect(df)

  override def scanTrigger(triggerId: Int): IndexedSeq[SeenSample] =
    collect(df.filter($"trig" === triggerId))

  private def collect(d: DataFrame): IndexedSeq[SeenSample] =
    d.orderBy("key").collect().toIndexedSeq
      .map(r => SeenSample(r.getLong(0), r.getLong(1), r.getLong(2), r.getInt(3)))

  override def reset(): Unit = synchronized {
    val fs = new repro.storage.LocalFileSystemWrapper
    fs.list(dir).foreach(fs.delete)
    // Also remove nested _SUCCESS/CRC artifacts left by Spark commits.
    val d = new java.io.File(dir)
    if (d.isDirectory) d.listFiles().foreach(f => if (f.isFile) f.delete())
    batches = 0
  }
}
