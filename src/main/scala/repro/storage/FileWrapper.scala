package repro.storage

import java.nio.{ByteBuffer, ByteOrder}
import java.nio.charset.StandardCharsets
import scala.collection.immutable.ArraySeq

/** A single extracted sample: raw payload bytes plus its integer label. */
final case class ExtractedSample(payload: Array[Byte], label: Long)

/** Extracts individual samples (and their labels) from one file, mirroring
  * Modyn's `FileWrapper` hierarchy (§4.1.4). A file may contain one sample
  * (JPEG-style) or hundreds of thousands (binary/CSV), and the wrapper hides
  * the layout from the storage service.
  */
trait FileWrapper {

  /** Number of samples contained in the file. */
  def numSamples: Int

  /** Payload bytes of the sample at `index` (0-based within the file). */
  def getSample(index: Int): Array[Byte]

  /** Payloads for a sorted batch of in-file indices, in the same order.
    * The result is an array so callers can index it in O(1).
    * Implementations may coalesce reads; the default delegates to
    * [[getSample]].
    */
  def getSamples(indices: Seq[Int]): Array[Array[Byte]] = indices.iterator.map(getSample).toArray

  /** Label of the sample at `index`. */
  def getLabel(index: Int): Long

  /** Every sample's label in in-file order — what ingestion reads. */
  def labels(): IndexedSeq[Long] = (0 until numSamples).map(getLabel)

  /** All (payload, label) pairs. */
  def extractAll(): IndexedSeq[ExtractedSample] =
    (0 until numSamples).map(i => ExtractedSample(getSample(i), getLabel(i)))
}

/** Fixed-row-size binary files, as used for recommendation-system data
  * (Criteo stores 160-byte samples). The label is a little-endian Int32 at
  * the start of each record; the payload is the full record. Reads use
  * positioned byte-range I/O so a single sample fetch does not read the
  * whole file, and [[getSamples]] coalesces adjacent records into one read.
  *
  * @param recordSize  total bytes per record, label included
  */
final class BinaryFileWrapper(fs: FileSystemWrapper, path: String, val recordSize: Int)
    extends FileWrapper {
  require(recordSize > 4, s"recordSize must exceed the 4-byte label, got $recordSize")

  private val fileSize = fs.size(path)
  require(fileSize % recordSize == 0,
    s"$path: size $fileSize is not a multiple of recordSize $recordSize")

  override val numSamples: Int = (fileSize / recordSize).toInt

  override def getSample(index: Int): Array[Byte] = {
    require(index >= 0 && index < numSamples, s"index $index out of [0, $numSamples)")
    fs.read(path, index.toLong * recordSize, recordSize)
  }

  override def getSamples(indices: Seq[Int]): Array[Array[Byte]] = {
    // An immutable IndexedSeq (e.g. a wrapped array) is used as is.
    val arr = indices.toIndexedSeq
    val out = new Array[Array[Byte]](arr.length)
    // Coalesce runs of adjacent indices into a single ranged read.
    var start = 0
    while (start < arr.length) {
      var end = start
      while (end + 1 < arr.length && arr(end + 1) == arr(end) + 1) end += 1
      val n     = end - start + 1
      val chunk = fs.read(path, arr(start).toLong * recordSize, n * recordSize)
      var i = 0
      while (i < n) {
        out(start + i) = java.util.Arrays.copyOfRange(chunk, i * recordSize, (i + 1) * recordSize)
        i += 1
      }
      start = end + 1
    }
    out
  }

  override def getLabel(index: Int): Long = {
    val bytes = fs.read(path, index.toLong * recordSize, 4)
    ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN).getInt.toLong
  }

  /** Reads the file once and takes each record's label, instead of
    * issuing `numSamples` positioned reads.
    */
  override def labels(): IndexedSeq[Long] = {
    val bb = ByteBuffer.wrap(fs.readAll(path)).order(ByteOrder.LITTLE_ENDIAN)
    ArraySeq.unsafeWrapArray(Array.tabulate(numSamples)(i => bb.getInt(i * recordSize).toLong))
  }

  /** Bulk extraction reads the file once and slices records, instead of
    * issuing `2 * numSamples` positioned reads.
    */
  override def extractAll(): IndexedSeq[ExtractedSample] = {
    val all = fs.readAll(path)
    val bb  = ByteBuffer.wrap(all).order(ByteOrder.LITTLE_ENDIAN)
    (0 until numSamples).map { i =>
      val payload = java.util.Arrays.copyOfRange(all, i * recordSize, (i + 1) * recordSize)
      ExtractedSample(payload, bb.getInt(i * recordSize).toLong)
    }
  }
}

/** Variable-length CSV files: one sample per line, label in a configured
  * column; the payload is the full line's UTF-8 bytes (the trainer's bytes
  * parser decides which columns become features).
  */
final class CsvFileWrapper(fs: FileSystemWrapper, path: String,
                           labelColumn: Int, delimiter: Char = ',')
    extends FileWrapper {

  private val lines: IndexedSeq[String] = {
    val text = new String(fs.readAll(path), StandardCharsets.UTF_8)
    text.split('\n').iterator.filter(_.nonEmpty).toIndexedSeq
  }

  override def numSamples: Int = lines.length

  override def getSample(index: Int): Array[Byte] =
    lines(index).getBytes(StandardCharsets.UTF_8)

  override def getLabel(index: Int): Long = {
    val cols = lines(index).split(delimiter)
    require(labelColumn < cols.length,
      s"$path line $index: label column $labelColumn out of ${cols.length} columns")
    cols(labelColumn).trim.toLong
  }
}

/** Files that contain exactly one sample (e.g. a JPEG image). The label is
  * read from a sidecar file `<path>.label` holding the decimal label, which
  * mirrors CLOC's per-image label files in the paper's evaluation setup.
  */
final class SingleSampleFileWrapper(fs: FileSystemWrapper, path: String)
    extends FileWrapper {

  override def numSamples: Int = 1

  override def getSample(index: Int): Array[Byte] = {
    require(index == 0, s"single-sample file has only index 0, got $index")
    fs.readAll(path)
  }

  override def getLabel(index: Int): Long = {
    require(index == 0, s"single-sample file has only index 0, got $index")
    new String(fs.readAll(path + ".label"), StandardCharsets.UTF_8).trim.toLong
  }

  /** The label, once the payload is known to exist; the payload itself is
    * not read.
    */
  override def labels(): IndexedSeq[Long] = {
    if (!fs.exists(path)) throw new java.nio.file.NoSuchFileException(path)
    IndexedSeq(getLabel(0))
  }
}

/** Identifies which wrapper to instantiate for a stored file. */
sealed trait FileWrapperType
object FileWrapperType {
  final case class Binary(recordSize: Int)           extends FileWrapperType
  final case class Csv(labelColumn: Int, delimiter: Char = ',') extends FileWrapperType
  case object SingleSample                           extends FileWrapperType

  def instantiate(t: FileWrapperType, fs: FileSystemWrapper, path: String): FileWrapper = t match {
    case Binary(rs)    => new BinaryFileWrapper(fs, path, rs)
    case Csv(col, del) => new CsvFileWrapper(fs, path, col, del)
    case SingleSample  => new SingleSampleFileWrapper(fs, path)
  }
}
