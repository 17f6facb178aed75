package repro

import java.nio.file.Files
import java.util.Comparator
import repro.storage.{FileSystemWrapper, LocalFileSystemWrapper}

/** Shared test helpers: temp-dir scoping and a file system to intercept. */
object TestUtil {

  /** Run `f` with a fresh temp directory, deleting it afterwards. */
  def withTmpDir[T](f: String => T): T = {
    val dir = Files.createTempDirectory("repro-test")
    try f(dir.toString)
    finally {
      Files.walk(dir).sorted(Comparator.reverseOrder())
        .forEach(p => Files.deleteIfExists(p))
    }
  }

  /** Forwards every call to the local file system; a test overrides the
    * calls it wants to count or break.
    */
  class ForwardingFs extends FileSystemWrapper {
    private val inner = new LocalFileSystemWrapper
    override def read(path: String, offset: Long, length: Int): Array[Byte] = inner.read(path, offset, length)
    override def readAll(path: String): Array[Byte] = inner.readAll(path)
    override def size(path: String): Long = inner.size(path)
    override def write(path: String, bytes: Array[Byte]): Unit = inner.write(path, bytes)
    override def exists(path: String): Boolean = inner.exists(path)
    override def delete(path: String): Unit = inner.delete(path)
    override def list(path: String): Seq[String] = inner.list(path)
  }
}
