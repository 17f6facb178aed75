package repro.util

import java.util.concurrent.{CountDownLatch, Executors, ThreadFactory}
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

/** The one executor of every thread site: the dataloader workers, the
  * prefetch threads, the storage retrieval threads, and the parallel file
  * writers of the TSS and the local metadata backend.
  *
  * Idle threads are kept for a minute and reused, so a partition, an epoch
  * or a trigger does not pay thread start-up again. Thread starts cost
  * 0.1–0.4 ms each on an idle 4-core VM and more on busy cores, and a
  * 16-worker epoch of four 75 000-key partitions started 96 of them. The
  * pool is unbounded because its tasks block on bounded queues: a fixed
  * pool smaller than the tasks in flight could deadlock.
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
}
