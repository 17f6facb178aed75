package repro

import java.nio.file.Files
import java.util.Comparator
import java.util.concurrent.TimeUnit
import repro.storage.{FileSystemWrapper, LocalFileSystemWrapper}
import scala.jdk.CollectionConverters._

/** Shared test helpers: temp-dir scoping, a file system to intercept, and
  * a wait for pooled tasks to end.
  */
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

  /** Wait up to ten seconds for every live thread whose name starts with
    * one of `prefixes` to end or be renamed (a pooled thread takes a task's
    * name while it runs it); return the names still running then.
    */
  def awaitNoTasks(prefixes: String*): Set[String] = {
    def running = Thread.getAllStackTraces.keySet.asScala.map(_.getName)
      .filter(n => prefixes.exists(n.startsWith)).toSet
    val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(10)
    while (running.nonEmpty && System.nanoTime() < deadline) Thread.sleep(10)
    running
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
