package repro.selector

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.storage.{FileSystemWrapper, SampleColumns}
import repro.util.LongSort
import scala.collection.immutable.ArraySeq

/** A sample as seen by the selector: storage key, label, event time, and
  * the (in-progress) trigger during which it arrived.
  */
final case class SeenSample(key: Long, label: Long, timestampSec: Long, seenInTrigger: Int)

/** Seen samples as columns: row `i` is the sample `keys(i)` with its
  * label, event time and arrival trigger.
  */
final class SeenColumns(val keys: Array[Long], val labels: Array[Long], val ts: Array[Long],
                        val trig: Array[Int]) {
  def size: Int = keys.length

  /** Row form of these columns. */
  def rows: IndexedSeq[SeenSample] =
    ArraySeq.tabulate(size)(i => SeenSample(keys(i), labels(i), ts(i), trig(i)))

  /** These rows in key order: one pass when they already are, else a
    * stable sort.
    */
  def sortedByKey: SeenColumns =
    if (LongSort.isAscending(keys, 0, size)) this
    else {
      val order = LongSort.order(keys, size)
      val k = new Array[Long](size); val l = new Array[Long](size)
      val t = new Array[Long](size); val g = new Array[Int](size)
      var i = 0
      while (i < size) {
        val r = order(i)
        k(i) = keys(r); l(i) = labels(r); t(i) = ts(r); g(i) = trig(r)
        i += 1
      }
      new SeenColumns(k, l, t, g)
    }
}

/** Selector-side state store for presampling strategies (§4.1.2).
  *
  * The paper ships a Postgres backend (flexible, SQL-queryable, slow to
  * insert) and a C++ local binary backend (fast, append-only). This
  * reproduction adds a Spark/Parquet backend: each informed batch appends
  * to a growing Parquet dataset. Every policy reads any backend through
  * [[scan]], so each policy has one implementation. Samples go in and
  * come out as columns; the row forms convert at the edge.
  */
trait MetadataBackend extends AutoCloseable {
  /** Record the rows of `batch`, all seen during trigger `triggerId`. */
  def persist(triggerId: Int, batch: SampleColumns): Unit

  /** Row form of [[persist]]: one call per trigger, in trigger order. */
  final def persist(samples: Seq[SeenSample]): Unit =
    samples.groupBy(_.seenInTrigger).toSeq.sortBy(_._1).foreach { case (t, rows) =>
      persist(t, SampleColumns(rows.map(_.key).toArray, rows.map(_.label).toArray, rows.map(_.timestampSec).toArray))
    }

  /** Number of samples currently recorded. */
  def count: Long

  /** All recorded samples as columns, ordered by key. */
  def scan(): SeenColumns

  /** Row form of [[scan]]. */
  final def scanAll(): IndexedSeq[SeenSample] = scan().rows

  /** Samples recorded during `triggerId`, ordered by key. */
  final def scanTrigger(triggerId: Int): IndexedSeq[SeenSample] =
    scanAll().filter(_.seenInTrigger == triggerId)

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
  override def persist(triggerId: Int, batch: SampleColumns): Unit = {
    val st = conn.createStatement()
    (batch.from until batch.until).grouped(1000).foreach { chunk =>
      val values = chunk.iterator
        .map(i => s"(${batch.keys(i)}, ${batch.labels(i)}, ${batch.ts(i)}, $triggerId)")
        .mkString(", ")
      st.execute(s"INSERT INTO seen VALUES $values")
    }
    st.close()
  }

  override def count: Long = {
    val rs = conn.createStatement().executeQuery("SELECT count(*) FROM seen")
    rs.next(); val c = rs.getLong(1); rs.close(); c
  }

  override def scan(): SeenColumns = columns("SELECT * FROM seen ORDER BY key")

  /** Run an arbitrary SQL selection over the `seen` table — the paper's
    * "many policies can be expressed using SQL statements".
    */
  def query(sql: String): IndexedSeq[SeenSample] = columns(sql).rows

  private def columns(sql: String): SeenColumns = {
    val st = conn.createStatement()
    val rs = st.executeQuery(sql)
    val (k, l, t, g) = (Array.newBuilder[Long], Array.newBuilder[Long], Array.newBuilder[Long],
      Array.newBuilder[Int])
    while (rs.next()) { k += rs.getLong(1); l += rs.getLong(2); t += rs.getLong(3); g += rs.getInt(4) }
    rs.close(); st.close()
    new SeenColumns(k.result(), l.result(), t.result(), g.result())
  }

  override def reset(): Unit = conn.createStatement().execute("DELETE FROM seen")

  override def close(): Unit = conn.close()
}

/** Append-only binary backend — the stand-in for the paper's C++
  * `LocalMetadataBackend` writing fixed-size records to local NVMe.
  *
  * Each `persist` call writes one file of 24-byte little-endian (key,
  * label, ts) records, named by its trigger; a scan reads the files back
  * with bulk reads, and sorts by key only when the rows are out of key
  * order. Ingestion is orders of magnitude faster than the SQL backend at
  * the cost of only supporting simple scan-shaped policies.
  */
final class LocalBinaryBackend(fs: FileSystemWrapper, dir: String) extends MetadataBackend {
  private val RecordBytes = 24
  private var chunkSeq    = 0L

  override def persist(triggerId: Int, batch: SampleColumns): Unit = synchronized {
    if (batch.size == 0) return
    val path = f"$dir/trigger_$triggerId%06d_chunk_$chunkSeq%08d.bin"
    chunkSeq += 1
    fs.write(path, FixedRecords.encode(batch.size, RecordBytes) { (buf, r) =>
      val i = batch.from + r
      buf.putLong(batch.keys(i)).putLong(batch.labels(i)).putLong(batch.ts(i))
    })
  }

  override def count: Long = fs.list(dir).map(fs.size(_) / RecordBytes).sum

  override def scan(): SeenColumns = {
    val files = fs.list(dir).map(path => (path, fs.readAll(path)))
    val n = files.map(_._2.length / RecordBytes).sum
    val (keys, labels, ts, trig) = (new Array[Long](n), new Array[Long](n), new Array[Long](n),
      new Array[Int](n))
    var at = 0
    files.foreach { case (path, bytes) =>
      val name  = path.substring(path.lastIndexOf('/') + 1)
      val first = at
      val rows  = FixedRecords.decode(bytes, RecordBytes) { (buf, r) =>
        keys(first + r) = buf.getLong(); labels(first + r) = buf.getLong(); ts(first + r) = buf.getLong()
      }
      java.util.Arrays.fill(trig, first, first + rows, name.stripPrefix("trigger_").take(6).toInt)
      at += rows
    }
    new SeenColumns(keys, labels, ts, trig).sortedByKey
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

  override def persist(triggerId: Int, batch: SampleColumns): Unit = synchronized {
    if (batch.size == 0) return
    (batch.from until batch.until).map(i => (batch.keys(i), batch.labels(i), batch.ts(i), triggerId))
      .toDF("key", "label", "ts", "trig")
      .write.mode("append").parquet(dir)
    batches += 1
  }

  override def count: Long = if (batches == 0) 0L else df.count()

  override def scan(): SeenColumns = {
    val rows = df.orderBy("key").collect()
    new SeenColumns(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getLong(2)),
      rows.map(_.getInt(3)))
  }

  override def reset(): Unit = synchronized {
    val fs = new repro.storage.LocalFileSystemWrapper
    fs.list(dir).foreach(fs.delete)
    // Also remove nested _SUCCESS/CRC artifacts left by Spark commits.
    val d = new java.io.File(dir)
    if (d.isDirectory) d.listFiles().foreach(f => if (f.isFile) f.delete())
    batches = 0
  }
}
