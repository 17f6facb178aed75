package repro.util

import java.util.concurrent.{CountDownLatch, Executors, LinkedBlockingQueue, Semaphore, ThreadFactory}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicReference}
import java.util.stream.IntStream
import scala.collection.AbstractIterator

/** The one executor of every thread site: the dataloader workers, the
  * prefetch tasks, the storage retrieval tasks, and the parallel file
  * writers of the TSS. Short compute that does not block, the model's
  * training step and the evaluator's scoring, runs in [[ranges]] on the
  * JDK's common ForkJoin pool instead.
  *
  * Idle threads are kept for a minute and reused, so a partition, an epoch
  * or a trigger does not pay thread start-up again. Thread starts cost
  * 0.1–0.4 ms each on an idle 4-core VM and more on busy cores, and a
  * 16-worker epoch of four 75 000-key partitions started 96 of them. The
  * pool is unbounded because its tasks block on bounded queues and slots:
  * a fixed pool smaller than the tasks in flight could deadlock.
  */
object Parallel {

  private val pool = Executors.newCachedThreadPool(new ThreadFactory {
    private val n = new AtomicInteger
    override def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"pool-${n.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
  })

  /** Run `body` on a pooled daemon thread, named `name` while it runs. */
  private def fork(name: String)(body: => Unit): Unit = pool.execute { () =>
    val t    = Thread.currentThread()
    val idle = t.getName
    t.setName(name)
    try body finally t.setName(idle)
  }

  /** Run every task on its own pooled thread (named `name-<index>`), wait
    * for all of them, then rethrow the first failure. A writer that fails
    * must fail the write: a silently missing file would leave the data
    * short.
    */
  def runAll(name: String, tasks: Seq[() => Unit]): Unit = {
    val failure = new AtomicReference[Throwable](null)
    val done    = new CountDownLatch(tasks.size)
    tasks.zipWithIndex.foreach { case (task, i) =>
      fork(s"$name-$i") {
        try task()
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        finally done.countDown()
      }
    }
    done.await()
    if (failure.get() != null) throw failure.get()
  }

  /** Run `body(from, until)` over `tasks` contiguous ranges of near-equal
    * size that cover `0 until n`, on the JDK's common ForkJoin pool with
    * the caller taking part, and return when all are done; one task runs
    * on the caller alone. For short compute that does not block: the
    * common pool has one thread per core, less the caller's.
    */
  def ranges(n: Int, tasks: Int)(body: (Int, Int) => Unit): Unit =
    if (tasks <= 1) body(0, n)
    else IntStream.range(0, tasks).parallel().forEach { (t: Int) =>
      body((t.toLong * n / tasks).toInt, ((t + 1).toLong * n / tasks).toInt)
    }

  private object End

  /** The streams `produce(0)`, …, `produce(n - 1)`, produced ahead of one
    * consumer on `tasks` pooled tasks (named `name-<task>`). A task takes a
    * free slot, then the next index, and puts that index's elements in the
    * index's buffer of at most `capacity` elements; reading a stream to its
    * end frees its slot, so at most `window` indices are produced but not
    * yet read to their end. The consumer may read the streams in any order.
    *
    * The first producer failure stops the other producers and is rethrown
    * to the consumer, on whatever stream it reads. `close()` stops the
    * producers at their next element, also those waiting for a slot or for
    * buffer space: close a fan-out whose streams are not all read to their
    * end. A stopping task closes the iterator it reads, if it is
    * [[AutoCloseable]], so the stop reaches a fan-out nested inside it.
    */
  final class FanOut[T] private[Parallel] (name: String, n: Int, tasks: Int, window: Int,
                                           capacity: Int, produce: Int => Iterator[T])
      extends AutoCloseable {
    // A stopped producer puts at most one more element, and a failure one
    // End, into a buffer the stop emptied: neither may block.
    require(tasks > 0 && window > 0 && capacity > 1,
      "tasks and window must be positive, capacity above 1")
    private val streams = Array.tabulate(n)(new Stream(_))
    private val slots   = new Semaphore(window)
    private val next    = new AtomicInteger
    private val failure = new AtomicReference[Throwable](null)
    private val stopped = new AtomicBoolean
    private var closed  = false

    /** Index `i`'s elements, in the order `produce(i)` yields them. */
    def apply(i: Int): Iterator[T] = streams(i)

    override def close(): Unit = { closed = true; stop() }

    private def stop(): Unit = {
      stopped.set(true)
      slots.release(tasks)
      streams.foreach(_.buffer.clear())
    }

    (0 until math.min(tasks, n)).foreach { t =>
      fork(s"$name-$t") {
        try {
          var running = true
          while (running) {
            slots.acquire()
            val i = next.getAndIncrement()
            if (i >= n || stopped.get()) running = false
            else {
              // Every index is taken: free a slot per task, so that no task
              // waits for a consumer that may never free one.
              if (i == n - 1) slots.release(tasks)
              streams(i).fill(produce(i))
            }
          }
        } catch {
          case e: Throwable =>
            // Record the failure before ending any stream, so that the
            // consumer never takes a failed stream for a finished one.
            if (failure.compareAndSet(null, e)) {
              stop()
              streams.foreach(_.buffer.offer(End))
            }
        }
      }
    }

    private final class Stream(i: Int) extends AbstractIterator[T] {
      val buffer               = new LinkedBlockingQueue[AnyRef](capacity)
      private var head: AnyRef = null
      private var ended        = false

      def fill(it: Iterator[T]): Unit =
        try {
          while (!stopped.get() && it.hasNext) buffer.put(it.next().asInstanceOf[AnyRef])
          if (!stopped.get()) buffer.put(End)
        } finally it match {
          case c: AutoCloseable => c.close()
          case _                =>
        }

      override def hasNext: Boolean = {
        while (head == null && !ended && !closed) {
          val x = buffer.take()
          if (failure.get() != null) throw failure.get()
          if (x eq End) { ended = true; slots.release() } else head = x
        }
        head != null && !closed
      }
      override def next(): T = {
        if (!hasNext) throw new NoSuchElementException(s"next on the exhausted stream $i")
        val x = head
        head = null
        x.asInstanceOf[T]
      }
    }
  }

  /** A [[FanOut]] of `n` streams whose buffers hold `capacity` elements
    * each, unbounded by default.
    */
  def fanOut[T](name: String, n: Int, tasks: Int, window: Int, capacity: Int = Int.MaxValue)(
      produce: Int => Iterator[T]): FanOut[T] =
    new FanOut(name, n, tasks, window, capacity, produce)

  /** Yield the elements of `produce(0)`, …, `produce(n - 1)` in index
    * order: a [[FanOut]] with unbounded buffers, read one stream after the
    * other. The same `produce` therefore gives the same sequence whatever
    * `tasks` is. Close an iterator that is not read to its end.
    */
  def ordered[T](name: String, n: Int, tasks: Int, window: Int)(
      produce: Int => Iterator[T]): Iterator[T] with AutoCloseable = {
    val streams = fanOut(name, n, tasks, window)(produce)
    new AbstractIterator[T] with AutoCloseable {
      private val all = Iterator.range(0, n).flatMap(streams(_))
      override def hasNext: Boolean = all.hasNext
      override def next(): T = all.next()
      override def close(): Unit = streams.close()
    }
  }
}
