package repro.storage

import java.sql.{Connection, DriverManager}
import java.util.concurrent.ConcurrentHashMap
import org.duckdb.DuckDBConnection
import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

/** Metadata row for one ingested sample. Keys are globally unique and
  * strictly increasing in ingestion order, matching Modyn's storage
  * component which "assigns a unique key to each sample" (§3.4).
  */
final case class SampleMeta(key: Long, fileId: Int, indexInFile: Int, label: Long, timestampSec: Long)

/** Registered file metadata: where it lives and how to parse it. */
final case class FileMeta(fileId: Int, path: String, wrapperType: FileWrapperType)

/** The storage component's metadata (§4.1.4).
  *
  * The paper keeps track of files, samples, and labels in Postgres; this
  * reproduction uses DuckDB (the only SQL engine available offline) as the
  * embedded stand-in. Like the paper's storage, ingestion extracts every
  * sample of a file through its [[FileWrapper]] and bulk-inserts the
  * metadata into the `files` and `samples` tables.
  *
  * Retrieval and replay never query those tables. They read an append-only
  * in-memory key index instead: primitive arrays whose row `key - 1` holds
  * the sample's (fileId, idx, label, ts). Ingest gives each file its id and
  * a contiguous block of keys in one step under the registry's lock, so
  * ascending key order is (file, idx) order even when files are ingested
  * concurrently, and resolving keys to (file, offset) (§4.2.3) is a sort of
  * the requested keys plus array reads.
  *
  * Writers (ingest, delete) hold the lock. They write rows first and then
  * publish them through the volatile `index` reference; readers take one
  * snapshot of it per call and never lock.
  */
final class SampleRegistry extends AutoCloseable {
  import SampleRegistry.KeyIndex

  Class.forName("org.duckdb.DuckDBDriver")

  private val rootConn: DuckDBConnection =
    DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]

  locally {
    val st = rootConn.createStatement()
    st.execute("CREATE TABLE files (file_id INTEGER PRIMARY KEY, path VARCHAR)")
    st.execute(
      "CREATE TABLE samples (key BIGINT PRIMARY KEY, file_id INTEGER, idx INTEGER, label BIGINT, ts BIGINT)")
    st.close()
  }

  // Guards every write: file ids, key blocks, the index rows and rootConn.
  private val lock       = new Object
  private var nextFileId = 0
  @volatile private var index = KeyIndex.empty
  // Written by ingest, read lock-free by retrieval threads.
  private val filesById  = new ConcurrentHashMap[Int, FileMeta]()

  /** Fresh connection sharing the same in-process metadata database, for
    * SQL over the `files` and `samples` tables.
    */
  def duplicateConnection(): Connection = rootConn.duplicate()

  /** Number of ingested samples, deleted ones included. */
  def numSamples: Long = index.size.toLong

  /** All registered files in id order. */
  def files: Seq[FileMeta] = filesById.values.asScala.toSeq.sortBy(_.fileId)

  def fileMeta(fileId: Int): FileMeta = {
    val fm = filesById.get(fileId)
    if (fm == null) throw new NoSuchElementException(s"unknown file id $fileId")
    fm
  }

  /** Ingest one file: extract all samples via the wrapper, assign keys, and
    * insert file + sample metadata. `timestampOf` maps the in-file index to
    * the sample's event time (experiment-mode replay orders by it).
    * Returns the assigned metadata in in-file order.
    */
  def ingestFile(fs: FileSystemWrapper, path: String, wrapperType: FileWrapperType,
                 timestampOf: Int => Long = _ => 0L): IndexedSeq[SampleMeta] = {
    val wrapper   = FileWrapperType.instantiate(wrapperType, fs, path)
    val extracted = wrapper.extractAll()
    val labels    = extracted.map(_.label)
    ingestPrecomputed(path, wrapperType, labels, timestampOf)
  }

  /** Fast-path ingestion when the caller (e.g. a data generator) already
    * knows each sample's label, avoiding a re-read of the file.
    */
  def ingestPrecomputed(path: String, wrapperType: FileWrapperType,
                        labels: IndexedSeq[Long],
                        timestampOf: Int => Long = _ => 0L): IndexedSeq[SampleMeta] = {
    lock.synchronized {
      val fileId = nextFileId
      nextFileId += 1
      filesById.put(fileId, FileMeta(fileId, path, wrapperType))

      val fs = rootConn.prepareStatement("INSERT INTO files VALUES (?, ?)")
      fs.setInt(1, fileId); fs.setString(2, path); fs.executeUpdate(); fs.close()

      val firstKey = index.size + 1L
      val metas = ArraySeq.tabulate(labels.length) { i =>
        SampleMeta(firstKey + i, fileId, i, labels(i), timestampOf(i))
      }
      // The Appender is DuckDB's bulk-ingest path — the stand-in for the
      // paper's Postgres COPY over the raw connection (§4.1.4).
      val app = rootConn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "samples")
      metas.foreach { m =>
        app.beginRow()
        app.append(m.key); app.append(m.fileId); app.append(m.indexInFile)
        app.append(m.label); app.append(m.timestampSec)
        app.endRow()
      }
      app.close()
      index = index.append(metas)
      metas
    }
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
    val ps = rootConn.prepareStatement("DELETE FROM samples WHERE key = ?")
    keys.foreach { k => ps.setLong(1, k); ps.addBatch() }
    ps.executeBatch()
    ps.close()
    index = ix // republish, so that every later reader sees the marks
    n
  }

  /** Resolve an arbitrary key set to (key, fileId, idx, label, ts), sorted
    * by (fileId, idx) so the caller can iterate file by file (§4.2.3). A
    * key requested twice yields two rows; unknown and deleted keys yield
    * none. Costs a primitive sort of the requested keys plus array reads.
    */
  def lookup(keys: Array[Long]): Array[SampleMeta] = {
    val ix     = index
    val sorted = keys.clone()
    java.util.Arrays.sort(sorted)
    val out = new Array[SampleMeta](sorted.length)
    var n   = 0
    var i   = 0
    while (i < sorted.length) {
      val k = sorted(i)
      if (k >= 1 && k <= ix.size) {
        val r = (k - 1).toInt
        val f = ix.fileId(r)
        if (f != KeyIndex.Deleted) { out(n) = ix.meta(r, f); n += 1 }
      }
      i += 1
    }
    if (n == out.length) out else java.util.Arrays.copyOf(out, n)
  }

  /** The same as `lookup(keys)`; `conn` is unused. Callers written
    * against the former SQL join pass a connection, and through this
    * overload they time the same lookup that retrieval uses.
    */
  def lookup(conn: Connection, keys: Array[Long]): Array[SampleMeta] = lookup(keys)

  /** All live sample metadata ordered by (timestamp, key) — the replay
    * order of experiment mode (§4.1.1).
    */
  def allSamplesByTime(): IndexedSeq[SampleMeta] = {
    val ix   = index
    val live = Array.newBuilder[SampleMeta]
    var r    = 0
    while (r < ix.size) {
      val f = ix.fileId(r)
      if (f != KeyIndex.Deleted) live += ix.meta(r, f)
      r += 1
    }
    val metas = live.result()
    // A stable sort, so samples with one timestamp stay in key order.
    java.util.Arrays.sort(metas, java.util.Comparator.comparingLong[SampleMeta](_.timestampSec))
    ArraySeq.unsafeWrapArray(metas)
  }

  override def close(): Unit = rootConn.close()
}

object SampleRegistry {
  /** Rows `0 until size` of the key index; row `key - 1` is that key's
    * sample. Published rows never change, except that deletion sets
    * `fileId` to [[Deleted]] in place. The arrays may be longer than
    * `size`: the rows past it belong to no reader yet.
    */
  private final class KeyIndex(val fileId: Array[Int], val idx: Array[Int],
                               val label: Array[Long], val ts: Array[Long], val size: Int) {
    /** This index with `metas` (keys `size + 1` to `size + metas.length`)
      * as its last rows. It writes them past `size`, into these arrays
      * while they fit, else into copies twice as long, so no reader sees a
      * row change. Call under the registry's lock and publish the result.
      */
    def append(metas: IndexedSeq[SampleMeta]): KeyIndex = {
      val rows = size + metas.length
      val ix =
        if (rows <= fileId.length) this
        else {
          val cap = math.max(rows, fileId.length * 2)
          new KeyIndex(java.util.Arrays.copyOf(fileId, cap), java.util.Arrays.copyOf(idx, cap),
            java.util.Arrays.copyOf(label, cap), java.util.Arrays.copyOf(ts, cap), size)
        }
      metas.foreach { m =>
        val r = (m.key - 1).toInt
        ix.fileId(r) = m.fileId; ix.idx(r) = m.indexInFile; ix.label(r) = m.label; ix.ts(r) = m.timestampSec
      }
      new KeyIndex(ix.fileId, ix.idx, ix.label, ix.ts, rows)
    }

    def meta(row: Int, file: Int): SampleMeta =
      SampleMeta(row + 1L, file, idx(row), label(row), ts(row))
  }

  private object KeyIndex {
    val Deleted = -1
    def empty: KeyIndex = new KeyIndex(new Array(1024), new Array(1024), new Array(1024), new Array(1024), 0)
  }
}
