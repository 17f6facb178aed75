package repro.storage

import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import scala.jdk.CollectionConverters._

/** Abstraction over byte-level I/O for a file system, mirroring Modyn's
  * `FileSystemWrapper` (§4.1.4). The storage component never touches files
  * directly; it always goes through one of these, so supporting a cloud FS
  * is a matter of adding an implementation.
  */
trait FileSystemWrapper {

  /** Read `length` bytes starting at `offset` of the file at `path`. */
  def read(path: String, offset: Long, length: Int): Array[Byte]

  /** Read the entire file at `path`. */
  def readAll(path: String): Array[Byte]

  /** Size in bytes of the file at `path`. */
  def size(path: String): Long

  /** Create (or truncate) the file at `path` with `bytes`. */
  def write(path: String, bytes: Array[Byte]): Unit

  /** True iff a file exists at `path`. */
  def exists(path: String): Boolean

  /** Delete the file at `path` if it exists. */
  def delete(path: String): Unit

  /** List the files directly inside directory `path`, sorted by name. */
  def list(path: String): Seq[String]
}

/** Local-disk implementation used throughout the reproduction.
  *
  * `read` uses a positioned [[FileChannel]] read so retrieving one sample
  * from a large file does not load the file into memory — this matches the
  * paper's `BinaryFileWrapper` operating on `std::ifstream`s.
  */
final class LocalFileSystemWrapper extends FileSystemWrapper {
  private def p(path: String): Path = Paths.get(path)

  override def read(path: String, offset: Long, length: Int): Array[Byte] = {
    val ch = FileChannel.open(p(path), StandardOpenOption.READ)
    try {
      val buf = ByteBuffer.allocate(length)
      var pos = offset
      while (buf.hasRemaining) {
        val n = ch.read(buf, pos)
        if (n < 0) throw new java.io.EOFException(s"$path: EOF at $pos reading $length@$offset")
        pos += n
      }
      buf.array()
    } finally ch.close()
  }

  override def readAll(path: String): Array[Byte] = Files.readAllBytes(p(path))

  override def size(path: String): Long = Files.size(p(path))

  /** One channel write of the whole array: `Files.write` would stream it
    * in 8 KB pieces, one system call each.
    */
  override def write(path: String, bytes: Array[Byte]): Unit = {
    val parent = p(path).getParent
    if (parent != null) Files.createDirectories(parent)
    val ch = FileChannel.open(p(path), StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING,
      StandardOpenOption.WRITE)
    try {
      val buf = ByteBuffer.wrap(bytes)
      while (buf.hasRemaining) ch.write(buf)
    } finally ch.close()
  }

  override def exists(path: String): Boolean = Files.exists(p(path))

  override def delete(path: String): Unit = Files.deleteIfExists(p(path))

  override def list(path: String): Seq[String] =
    if (!Files.isDirectory(p(path))) Seq.empty
    else {
      val stream = Files.list(p(path)) // must be closed or the fd leaks
      try stream.iterator().asScala
        .filter(Files.isRegularFile(_)).map(_.toString).toSeq.sorted
      finally stream.close()
    }
}
