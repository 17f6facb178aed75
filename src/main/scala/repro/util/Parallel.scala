package repro.util

import java.util.concurrent.atomic.AtomicReference

/** Fork/join over a fixed set of tasks, for the parallel file writers of
  * the TSS and the local metadata backend.
  */
object Parallel {

  /** Run every task on its own thread (named `name-<index>`), wait for all
    * of them, then rethrow the first failure. A writer that fails must fail
    * the write: a silently missing file would leave the data short.
    */
  def runAll(name: String, tasks: Seq[() => Unit]): Unit = {
    val failure = new AtomicReference[Throwable](null)
    val threads = tasks.zipWithIndex.map { case (task, i) =>
      val t = new Thread(() => {
        try task()
        catch { case e: Throwable => failure.compareAndSet(null, e) }
      }, s"$name-$i")
      t.start(); t
    }
    threads.foreach(_.join())
    if (failure.get() != null) throw failure.get()
  }
}
