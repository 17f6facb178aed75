package repro.storage

import java.sql.{Connection, DriverManager}
import java.util.concurrent.ConcurrentHashMap
import org.duckdb.DuckDBConnection
import repro.util.LongSort
import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

/** Metadata row for one ingested sample. Keys are globally unique and
  * strictly increasing in ingestion order, matching Modyn's storage
  * component which "assigns a unique key to each sample" (§3.4).
  */
final case class SampleMeta(key: Long, fileId: Int, indexInFile: Int, label: Long, timestampSec: Long)

/** Samples as parallel columns: row `i`, for `i` in `from until until`, is
  * the sample `keys(i)` with its label and event time. A slice shares the
  * arrays of the columns it was cut from.
  */
final class SampleColumns(val keys: Array[Long], val labels: Array[Long], val ts: Array[Long],
                          val from: Int, val until: Int) {
  def size: Int = until - from

  /** Rows `lo until hi` of this slice, counted from its first row. */
  def slice(lo: Int, hi: Int): SampleColumns = new SampleColumns(keys, labels, ts, from + lo, from + hi)
}

object SampleColumns {
  def apply(keys: Array[Long], labels: Array[Long], ts: Array[Long]): SampleColumns =
    new SampleColumns(keys, labels, ts, 0, keys.length)
}

/** Registered file metadata: where it lives and how to parse it. */
final case class FileMeta(fileId: Int, path: String, wrapperType: FileWrapperType)

/** The storage component's metadata (§4.1.4).
  *
  * The paper keeps track of files, samples, and labels in Postgres. Here
  * the metadata store is an append-only in-memory key index: primitive
  * arrays whose row `key - 1` holds the sample's (fileId, idx, label, ts),
  * plus a concurrent map of the registered files. Like the paper's storage,
  * ingestion reads every sample's label through the file's [[FileWrapper]];
  * it then gives the file its id and a contiguous block of keys in one
  * step under the registry's lock, so ascending key order is (file, idx)
  * order even when files are ingested concurrently, and resolving keys to
  * (file, offset) (§4.2.3) is a sort of the requested keys plus array
  * reads.
  *
  * Writers (ingest, delete) hold the lock. They write rows first and then
  * publish them through the volatile `index` reference; readers take one
  * snapshot of it per call and never lock.
  */
final class SampleRegistry extends AutoCloseable {
  import SampleRegistry.KeyIndex

  // Guards every write: file ids, key blocks, the index rows and sqlConn.
  private val lock       = new Object
  private var nextFileId = 0
  @volatile private var index = KeyIndex.empty
  // Written by ingest, read lock-free by retrieval threads.
  private val filesById  = new ConcurrentHashMap[Int, FileMeta]()
  private var sqlConn: DuckDBConnection = null

  /** A connection to an empty in-memory DuckDB database, opened on the
    * first call; it holds no registry tables.
    */
  @deprecated("the registry keeps no SQL tables; use lookup(keys)")
  def duplicateConnection(): Connection = lock.synchronized {
    if (sqlConn == null) {
      Class.forName("org.duckdb.DuckDBDriver")
      sqlConn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    }
    sqlConn.duplicate()
  }

  /** Number of ingested samples, deleted ones included. */
  def numSamples: Long = index.size.toLong

  /** All registered files in id order. */
  def files: Seq[FileMeta] = filesById.values.asScala.toSeq.sortBy(_.fileId)

  def fileMeta(fileId: Int): FileMeta = {
    val fm = filesById.get(fileId)
    if (fm == null) throw new NoSuchElementException(s"unknown file id $fileId")
    fm
  }

  /** Ingest one file: read every sample's label via the wrapper and
    * register the file. `timestampOf` maps the in-file index to the
    * sample's event time (experiment-mode replay orders by it).
    * Returns the assigned metadata in in-file order.
    */
  def ingestFile(fs: FileSystemWrapper, path: String, wrapperType: FileWrapperType,
                 timestampOf: Int => Long = _ => 0L): IndexedSeq[SampleMeta] =
    ingestPrecomputed(path, wrapperType, FileWrapperType.instantiate(wrapperType, fs, path).labels(),
      timestampOf)

  /** Fast-path ingestion when the caller (e.g. a data generator) already
    * knows each sample's label, avoiding a re-read of the file.
    */
  def ingestPrecomputed(path: String, wrapperType: FileWrapperType,
                        labels: IndexedSeq[Long],
                        timestampOf: Int => Long = _ => 0L): IndexedSeq[SampleMeta] = {
    val n     = labels.length
    val label = labels.toArray
    val ts    = Array.tabulate(n)(timestampOf)
    val (fileId, firstKey) = lock.synchronized {
      val fileId = nextFileId
      nextFileId += 1
      filesById.put(fileId, FileMeta(fileId, path, wrapperType))
      val firstKey = index.size + 1L
      index = index.append(fileId, label, ts)
      (fileId, firstKey)
    }
    ArraySeq.tabulate(n)(i => SampleMeta(firstKey + i, fileId, i, label(i), ts(i)))
  }

  /** Delete samples by key (GDPR-style removal, §2.1). Deleted samples
    * disappear from lookups and from time-ordered scans. Returns how many
    * live samples were deleted.
    */
  def deleteSamples(keys: Seq[Long]): Int = lock.synchronized {
    val ix = index
    var n  = 0
    keys.foreach { k =>
      if (k >= 1 && k <= ix.size && ix.fileId((k - 1).toInt) != KeyIndex.Deleted) {
        ix.fileId((k - 1).toInt) = KeyIndex.Deleted
        n += 1
      }
    }
    index = ix // republish, so that every later reader sees the marks
    n
  }

  /** Resolve the requested keys `keys(from until until)` to their rows,
    * sorted by (fileId, idx) so the caller can iterate file by file
    * (§4.2.3); each row carries the position of its key in `keys`. A key
    * requested twice yields two rows; unknown and deleted keys yield none.
    * Requested keys in ascending order cost one pass; others first get one
    * primitive sort of their `(key - 1) << 32 | position` values.
    */
  def locate(keys: Array[Long], from: Int, until: Int): SampleRegistry.Located = {
    val ix     = index
    val sorted = LongSort.isAscending(keys, from, until)
    val packed = if (sorted) null else {
      val p = new Array[Long](until - from)
      var i = from
      while (i < until) {
        val k = keys(i)
        p(i - from) = if (k >= 1 && k <= ix.size) ((k - 1) << 32) | i else Long.MaxValue
        i += 1
      }
      java.util.Arrays.sort(p)
      p
    }
    val positions = new Array[Int](until - from)
    val rows      = new Array[Int](until - from)
    val files     = new Array[Int](until - from)
    var n = 0
    var j = 0
    while (j < until - from) {
      val key = if (sorted) keys(from + j) else (packed(j) >>> 32) + 1
      if (key >= 1 && key <= ix.size) {
        val f = ix.fileId((key - 1).toInt)
        if (f != KeyIndex.Deleted) {
          positions(n) = if (sorted) from + j else packed(j).toInt
          rows(n) = (key - 1).toInt
          files(n) = f
          n += 1
        }
      }
      j += 1
    }
    if (n == until - from) new SampleRegistry.Located(positions, rows, files, ix.idx, ix.label, ix.ts)
    else new SampleRegistry.Located(java.util.Arrays.copyOf(positions, n),
      java.util.Arrays.copyOf(rows, n), java.util.Arrays.copyOf(files, n), ix.idx, ix.label, ix.ts)
  }

  /** Row form of [[locate]] over all of `keys`: (key, fileId, idx, label,
    * ts) sorted by (fileId, idx).
    */
  def lookup(keys: Array[Long]): Array[SampleMeta] = {
    val l   = locate(keys, 0, keys.length)
    val out = new Array[SampleMeta](l.size)
    var i = 0
    while (i < out.length) {
      out(i) = SampleMeta(l.key(i), l.fileId(i), l.indexInFile(i), l.label(i), l.timestampSec(i))
      i += 1
    }
    out
  }

  /** The same as `lookup(keys)`; `conn` is unused. Callers written
    * against the former SQL join pass a connection, and through this
    * overload they time the same lookup that retrieval uses.
    */
  @deprecated("the registry keeps no SQL tables; use lookup(keys)")
  def lookup(conn: Connection, keys: Array[Long]): Array[SampleMeta] = lookup(keys)

  /** Every live sample as columns in the replay order of experiment mode
    * (§4.1.1): by timestamp, then key.
    */
  def samplesByTime(): SampleColumns = {
    val ix   = index
    val rows = ix.liveRowsByTime()
    val keys   = new Array[Long](rows.length)
    val labels = new Array[Long](rows.length)
    val ts     = new Array[Long](rows.length)
    var i = 0
    while (i < rows.length) {
      keys(i) = rows(i) + 1L; labels(i) = ix.label(rows(i)); ts(i) = ix.ts(rows(i))
      i += 1
    }
    SampleColumns(keys, labels, ts)
  }

  /** Row form of [[samplesByTime]]: all live sample metadata ordered by
    * (timestamp, key).
    */
  def allSamplesByTime(): IndexedSeq[SampleMeta] = {
    val ix = index
    ArraySeq.unsafeWrapArray(ix.liveRowsByTime().map(r => ix.meta(r, ix.fileId(r))))
  }

  override def close(): Unit = lock.synchronized {
    if (sqlConn != null) { sqlConn.close(); sqlConn = null }
  }
}

object SampleRegistry {
  /** The rows one [[SampleRegistry.locate]] call resolved, in (file, idx)
    * order: row `i` is the requested key at `position(i)` of the request.
    */
  final class Located private[SampleRegistry] (positions: Array[Int], rows: Array[Int],
                                               files: Array[Int], idx: Array[Int],
                                               labels: Array[Long], ts: Array[Long]) {
    def size: Int                  = rows.length
    def position(i: Int): Int      = positions(i)
    def key(i: Int): Long          = rows(i) + 1L
    def fileId(i: Int): Int        = files(i)
    def indexInFile(i: Int): Int   = idx(rows(i))
    def label(i: Int): Long        = labels(rows(i))
    def timestampSec(i: Int): Long = ts(rows(i))
  }

  /** Rows `0 until size` of the key index; row `key - 1` is that key's
    * sample. Published rows never change, except that deletion sets
    * `fileId` to [[Deleted]] in place. The arrays may be longer than
    * `size`: the rows past it belong to no reader yet.
    */
  private final class KeyIndex(val fileId: Array[Int], val idx: Array[Int],
                               val label: Array[Long], val ts: Array[Long], val size: Int) {
    /** This index with file `file`'s samples (keys `size + 1` to
      * `size + labels.length`, in-file order) as its last rows. It writes
      * them past `size`, into these arrays while they fit, else into copies
      * twice as long, so no reader sees a row change. Call under the
      * registry's lock and publish the result.
      */
    def append(file: Int, labels: Array[Long], stamps: Array[Long]): KeyIndex = {
      val rows = size + labels.length
      val ix =
        if (rows <= fileId.length) this
        else {
          val cap = math.max(rows, fileId.length * 2)
          new KeyIndex(java.util.Arrays.copyOf(fileId, cap), java.util.Arrays.copyOf(idx, cap),
            java.util.Arrays.copyOf(label, cap), java.util.Arrays.copyOf(ts, cap), size)
        }
      java.util.Arrays.fill(ix.fileId, size, rows, file)
      var i = 0
      while (i < labels.length) { ix.idx(size + i) = i; i += 1 }
      System.arraycopy(labels, 0, ix.label, size, labels.length)
      System.arraycopy(stamps, 0, ix.ts, size, stamps.length)
      new KeyIndex(ix.fileId, ix.idx, ix.label, ix.ts, rows)
    }

    def meta(row: Int, file: Int): SampleMeta =
      SampleMeta(row + 1L, file, idx(row), label(row), ts(row))

    /** The live rows ordered by (timestamp, key). Rows are in key order,
      * so this is a stable sort by timestamp, skipped when the timestamps
      * already ascend.
      */
    def liveRowsByTime(): Array[Int] = {
      var n = 0
      var r = 0
      while (r < size) { if (fileId(r) != KeyIndex.Deleted) n += 1; r += 1 }
      val rows  = new Array[Int](n)
      val times = new Array[Long](n)
      n = 0
      r = 0
      while (r < size) {
        if (fileId(r) != KeyIndex.Deleted) { rows(n) = r; times(n) = ts(r); n += 1 }
        r += 1
      }
      if (LongSort.isAscending(times, 0, n)) rows
      else {
        val order = LongSort.order(times, n)
        var i = 0
        while (i < n) { order(i) = rows(order(i)); i += 1 }
        order
      }
    }
  }

  private object KeyIndex {
    val Deleted = -1
    def empty: KeyIndex = new KeyIndex(new Array(1024), new Array(1024), new Array(1024), new Array(1024), 0)
  }
}
