package repro.storage

import java.sql.{Connection, DriverManager}
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.duckdb.DuckDBConnection
import scala.jdk.CollectionConverters._

/** Metadata row for one ingested sample. Keys are globally unique and
  * strictly increasing in ingestion order, matching Modyn's storage
  * component which "assigns a unique key to each sample" (§3.4).
  */
final case class SampleMeta(key: Long, fileId: Int, indexInFile: Int, label: Long, timestampSec: Long)

/** Registered file metadata: where it lives and how to parse it. */
final case class FileMeta(fileId: Int, path: String, wrapperType: FileWrapperType)

/** The storage component's metadata database (§4.1.4).
  *
  * The paper keeps track of files, samples, and labels in Postgres; this
  * reproduction uses DuckDB (the only SQL engine available offline) as the
  * embedded stand-in. Like the paper's storage, ingestion extracts every
  * sample of a file through its [[FileWrapper]] and bulk-inserts the
  * metadata; retrieval resolves arbitrary key sets to (file, offset) pairs
  * with a join against a temp key table, whose cost scales with the number
  * of requested keys — the effect measured in §5.1.1.
  */
final class SampleRegistry extends AutoCloseable {
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

  private val nextKey    = new AtomicLong(1L)
  private val nextFileId = new AtomicLong(0L)
  // Written by ingest, read lock-free by retrieval threads.
  private val filesById  = new ConcurrentHashMap[Int, FileMeta]()
  private val tempSeq    = new AtomicLong(0L)

  /** Fresh connection sharing the same in-process database — one per
    * retrieval thread, mirroring the paper's parallel Postgres workers.
    */
  def duplicateConnection(): Connection = rootConn.duplicate()

  /** Number of ingested samples. */
  def numSamples: Long = nextKey.get() - 1

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
    val fileId = nextFileId.getAndIncrement().toInt
    filesById.put(fileId, FileMeta(fileId, path, wrapperType))

    val fs = rootConn.prepareStatement("INSERT INTO files VALUES (?, ?)")
    fs.setInt(1, fileId); fs.setString(2, path); fs.executeUpdate(); fs.close()

    val metas = labels.indices.map { i =>
      SampleMeta(nextKey.getAndIncrement(), fileId, i, labels(i), timestampOf(i))
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
    metas
  }

  /** Delete samples by key (GDPR-style removal, §2.1). Deleted samples
    * disappear from lookups and from time-ordered scans.
    */
  def deleteSamples(keys: Seq[Long]): Int = {
    val ps = rootConn.prepareStatement("DELETE FROM samples WHERE key = ?")
    keys.foreach { k => ps.setLong(1, k); ps.addBatch() }
    val n = ps.executeBatch().sum
    ps.close(); n
  }

  /** Resolve an arbitrary key set to (key, fileId, idx, label), sorted by
    * (fileId, idx) so the caller can iterate file by file (§4.2.3). Uses a
    * temp key table + join on the supplied per-thread connection; the join
    * cost growing with the request size reproduces the paper's metadata-
    * lookup scaling.
    */
  def lookup(conn: Connection, keys: Array[Long]): Array[SampleMeta] = {
    if (keys.isEmpty) return Array.empty
    val tmp = s"req_${tempSeq.getAndIncrement()}"
    val st  = conn.createStatement()
    st.execute(s"CREATE TABLE $tmp (key BIGINT)")
    try {
      val app = conn.asInstanceOf[DuckDBConnection]
        .createAppender(DuckDBConnection.DEFAULT_SCHEMA, tmp)
      keys.foreach { k => app.beginRow(); app.append(k); app.endRow() }
      app.close()
      val rs = st.executeQuery(
        s"""SELECT r.key, s.file_id, s.idx, s.label, s.ts
           |FROM $tmp r JOIN samples s ON r.key = s.key
           |ORDER BY s.file_id, s.idx""".stripMargin)
      val out = Array.newBuilder[SampleMeta]
      out.sizeHint(keys.length)
      while (rs.next())
        out += SampleMeta(rs.getLong(1), rs.getInt(2), rs.getInt(3), rs.getLong(4), rs.getLong(5))
      rs.close()
      out.result()
    } finally {
      st.execute(s"DROP TABLE $tmp"); st.close()
    }
  }

  /** All sample metadata ordered by (timestamp, key) — the replay order of
    * experiment mode (§4.1.1).
    */
  def allSamplesByTime(): IndexedSeq[SampleMeta] = {
    val st = rootConn.createStatement()
    val rs = st.executeQuery("SELECT key, file_id, idx, label, ts FROM samples ORDER BY ts, key")
    val out = IndexedSeq.newBuilder[SampleMeta]
    while (rs.next())
      out += SampleMeta(rs.getLong(1), rs.getInt(2), rs.getInt(3), rs.getLong(4), rs.getLong(5))
    rs.close(); st.close()
    out.result()
  }

  override def close(): Unit = rootConn.close()
}
