package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.{AtomicLong, LongAdder}
import repro.storage.FileSystemWrapper
import repro.trainer.{BytesParser, Model, TrainingSetSource}
import scala.jdk.CollectionConverters._

/** One recorded interval. `parent` is 0 for a root span; spans of one root
  * share its `trace` id. `detail` carries an argument such as a file path.
  */
final case class Span(id: Long, parent: Long, trace: Long, name: String,
                      detail: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Spans and counters of one benchmark phase, kept in memory until the run
  * writes them out. Spans nest per thread; a span opened with
  * `shared = true` also adopts the spans of other threads that have no open
  * span of their own (data-path threads started inside it).
  */
final class Tracer(val phase: String) {
  import Tracer.Frame
  private val spanQueue = new ConcurrentLinkedQueue[Span]()
  private val counterMap = new ConcurrentHashMap[String, LongAdder]()
  private val sampleMap = new ConcurrentHashMap[String, ConcurrentLinkedQueue[java.lang.Long]]()
  private val stack = ThreadLocal.withInitial[List[Frame]](() => Nil)
  @volatile private var sharedFrame: Frame = Frame(0L, 0L)

  def span[T](name: String, detail: String = "", shared: Boolean = false)(body: => T): T = {
    val open   = stack.get
    val parent = open.headOption.getOrElse(sharedFrame)
    val id     = Tracer.ids.getAndIncrement()
    val frame  = Frame(id, if (parent.trace == 0L) id else parent.trace)
    val prevShared = sharedFrame
    stack.set(frame :: open)
    if (shared) sharedFrame = frame
    val start = System.nanoTime()
    try body
    finally {
      val end = System.nanoTime()
      if (shared) sharedFrame = prevShared
      stack.set(open)
      spanQueue.add(Span(id, parent.id, frame.trace, name, detail, start, end))
    }
  }

  def add(name: String, delta: Long): Unit =
    counterMap.computeIfAbsent(name, _ => new LongAdder).add(delta)

  /** Time `body` into counters `name.ns` and `name.calls`. */
  def timed[T](name: String)(body: => T): T = {
    val start = System.nanoTime()
    try body
    finally { add(s"$name.ns", System.nanoTime() - start); add(s"$name.calls", 1) }
  }

  /** Keep one observation of `name` for percentiles. */
  def observe(name: String, value: Long): Unit =
    sampleMap.computeIfAbsent(name, _ => new ConcurrentLinkedQueue[java.lang.Long]()).add(value)

  def counter(name: String): Long = Option(counterMap.get(name)).map(_.sum()).getOrElse(0L)
  def observations(name: String): Seq[Long] =
    Option(sampleMap.get(name)).map(_.asScala.map(_.longValue).toSeq).getOrElse(Seq.empty)
  def spans: Seq[Span] = spanQueue.asScala.toSeq
  def spans(name: String): Seq[Span] = spans.filter(_.name == name)
  def counters: Map[String, Long] = counterMap.asScala.map { case (k, v) => k -> v.sum() }.toMap

  /** The span's duration minus the part its direct children cover. */
  def selfNs(s: Span): Long = s.durNs - Tracer.unionNs(spans.filter(_.parent == s.id))
}

object Tracer {
  private final case class Frame(id: Long, trace: Long)
  private val ids = new AtomicLong(1L)

  /** Total time of `ss`, counting overlapping intervals once. */
  def unionNs(ss: Seq[Span]): Long = {
    var total = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    ss.sortBy(_.startNs).foreach { s =>
      if (s.startNs > curEnd) {
        if (curEnd > curStart) total += curEnd - curStart
        curStart = s.startNs; curEnd = s.endNs
      } else if (s.endNs > curEnd) curEnd = s.endNs
    }
    if (curEnd > curStart) total += curEnd - curStart
    total
  }

  /** Write every span of `tracers` as one JSON object per line, then each
    * tracer's counters as one line.
    */
  def write(path: java.nio.file.Path, tracers: Seq[Tracer]): Unit = {
    val sb = new StringBuilder
    tracers.foreach { t =>
      sb ++= Json.render(Map("phase" -> t.phase, "counters" -> t.counters)) += '\n'
      t.spans.sortBy(_.startNs).foreach { s =>
        sb ++= Json.render(Map("phase" -> t.phase, "id" -> s.id, "parent" -> s.parent,
          "trace" -> s.trace, "name" -> s.name, "detail" -> s.detail,
          "start_ns" -> s.startNs, "end_ns" -> s.endNs)) += '\n'
      }
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.writeString(path, sb.toString)
  }
}

/** Counts and times every call into a file system under `prefix`. Writes
  * and listings are also spans (with the path as detail), and so are reads
  * when `readSpans` is set.
  */
final class TracedFs(inner: FileSystemWrapper, t: Tracer, prefix: String,
                     readSpans: Boolean = false) extends FileSystemWrapper {
  private def reading(path: String)(body: => Array[Byte]): Array[Byte] = {
    val bytes =
      if (readSpans) t.span(s"$prefix.read", path)(t.timed(s"$prefix.read")(body))
      else t.timed(s"$prefix.read")(body)
    t.add(s"$prefix.read.bytes", bytes.length)
    bytes
  }
  override def read(path: String, offset: Long, length: Int): Array[Byte] =
    reading(path)(inner.read(path, offset, length))
  override def readAll(path: String): Array[Byte] = reading(path)(inner.readAll(path))
  override def size(path: String): Long = t.timed(s"$prefix.size")(inner.size(path))
  override def write(path: String, bytes: Array[Byte]): Unit = {
    t.add(s"$prefix.write.bytes", bytes.length)
    t.span(s"$prefix.write", path)(t.timed(s"$prefix.write")(inner.write(path, bytes)))
  }
  override def exists(path: String): Boolean = t.timed(s"$prefix.exists")(inner.exists(path))
  override def delete(path: String): Unit = t.timed(s"$prefix.delete")(inner.delete(path))
  override def list(path: String): Seq[String] =
    t.span(s"$prefix.list", path)(t.timed(s"$prefix.list")(inner.list(path)))
}

final class TracedParser(inner: BytesParser, t: Tracer) extends BytesParser {
  override def dim: Int = inner.dim
  override def parse(payload: Array[Byte]): Array[Float] = t.timed("parse")(inner.parse(payload))
}

/** Times the SGD step (`trainBatch`, a span), the downsampling score calls
  * and the evaluation forward pass (`scores`).
  */
final class TracedModel(inner: Model, t: Tracer) extends Model {
  override def dim: Int = inner.dim
  override def numClasses: Int = inner.numClasses
  override def weights: Array[Double] = inner.weights
  override def setWeights(w: Array[Double]): Unit = inner.setWeights(w)
  override def scores(x: Array[Float]): Array[Double] = t.timed("model.scores")(inner.scores(x))
  override def lossOf(x: Array[Float], y: Int): Double = t.timed("model.score")(inner.lossOf(x, y))
  override def lastLayerGradNorm(x: Array[Float], y: Int, ceOptimized: Boolean): Double =
    t.timed("model.score")(inner.lastLayerGradNorm(x, y, ceOptimized))
  override def trainBatch(xs: Array[Array[Float]], ys: Array[Int], sampleWeights: Array[Double]): Double = {
    t.add("model.trainBatch.samples", xs.length)
    t.span("model.trainBatch")(t.timed("model.trainBatch")(inner.trainBatch(xs, ys, sampleWeights)))
  }
}

final class TracedSource(inner: TrainingSetSource, t: Tracer) extends TrainingSetSource {
  override def numPartitions: Int = inner.numPartitions
  override def totalSamples: Long = inner.totalSamples
  override def workerShare(partition: Int, workerId: Int, numWorkers: Int): (Array[Long], Array[Double]) =
    t.span("tss.workerShare", s"$partition/$workerId")(inner.workerShare(partition, workerId, numWorkers))
}

/** JVM-wide counters read from JMX. */
final case class JvmCounters(gcCount: Long, gcPauseMs: Long, allocBytes: Long, threadsStarted: Long) {
  def -(o: JvmCounters): JvmCounters = JvmCounters(gcCount - o.gcCount, gcPauseMs - o.gcPauseMs,
    allocBytes - o.allocBytes, threadsStarted - o.threadsStarted)
}

object JvmCounters {
  def read(): JvmCounters = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    JvmCounters(gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum,
      threads.getTotalThreadAllocatedBytes, threads.getTotalStartedThreadCount)
  }
}

/** Minimal JSON rendering for the benchmark's own output. */
object Json {
  def render(v: Any): String = v match {
    case s: String         => quote(s)
    case b: Boolean        => b.toString
    case d: Double         => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int            => n.toString
    case n: Long           => n.toString
    case m: Map[_, _]      =>
      m.toSeq.map { case (k, x) => s"${quote(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case s: Iterable[_]    => s.map(render).mkString("[", ", ", "]")
    case other             => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').toString
  }
}
