package repro.util

import java.util.concurrent.{CountDownLatch, Executors, LinkedBlockingQueue, Semaphore, ThreadFactory}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger, AtomicReference}

/** The one executor of every thread site: the dataloader workers, the
  * prefetch tasks, the storage retrieval tasks, and the parallel file
  * writers of the TSS.
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
  def fork(name: String)(body: => Unit): Unit = pool.execute { () =>
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

  private object End

  /** Yield the elements of `produce(0)`, …, `produce(n - 1)` in index
    * order, produced ahead of the consumer on `tasks` pooled tasks (named
    * `name-<task>`). A task takes a free slot, then the next index, and
    * puts that index's elements in its own buffer; the consumer frees the
    * slot once it has read the whole index, so at most `window` indices
    * are produced but not yet consumed. The same `produce` therefore gives
    * the same sequence whatever `tasks` is.
    *
    * The first producer failure is rethrown to the consumer, at whatever
    * index it is reading. `close()` stops the producers at their next
    * element and wakes those waiting for a slot: close an iterator that is
    * not read to its end.
    */
  def ordered[T](name: String, n: Int, tasks: Int, window: Int)(
      produce: Int => Iterator[T]): Iterator[T] with AutoCloseable = {
    require(tasks > 0 && window > 0, "tasks and window must be positive")
    val buffers = Array.fill(n)(new LinkedBlockingQueue[AnyRef])
    val slots   = new Semaphore(window)
    val next    = new AtomicInteger
    val failure = new AtomicReference[Throwable](null)
    val stopped = new AtomicBoolean
    def stop(): Unit = { stopped.set(true); slots.release(tasks) }

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
              val it = produce(i)
              while (!stopped.get() && it.hasNext) buffers(i).put(it.next().asInstanceOf[AnyRef])
              buffers(i).put(End)
            }
          }
        } catch {
          case e: Throwable =>
            // Record the failure before ending any index, so that the
            // consumer never takes a failed index for a finished one.
            failure.compareAndSet(null, e)
            stop()
            buffers.foreach(_.put(End))
        }
      }
    }

    new Iterator[T] with AutoCloseable {
      private var i            = 0
      private var head: AnyRef = null
      private var closed       = false

      override def hasNext: Boolean = {
        while (head == null && i < n && !closed) {
          val x = buffers(i).take()
          if (failure.get() != null) throw failure.get()
          if (x eq End) { i += 1; slots.release() } else head = x
        }
        head != null && !closed
      }
      override def next(): T = {
        if (!hasNext) throw new NoSuchElementException("next on an exhausted iterator")
        val x = head
        head = null
        x.asInstanceOf[T]
      }
      override def close(): Unit = { closed = true; stop() }
    }
  }
}
