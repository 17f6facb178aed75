package repro.util

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.awaitNoTasks

class ParallelSpec extends AnyFunSuite {

  test("ordered yields every index's elements in index order, whatever the task count") {
    val expected = (0 until 40).flatMap(i => (0 until i % 5).map(j => (i, j)))
    for (tasks <- Seq(1, 2, 3, 8); window <- Seq(1, 2, 5)) {
      val it = Parallel.ordered("ordered-order", 40, tasks, window) { i =>
        // Later indices finish first unless the order is enforced.
        Thread.sleep((40 - i) % 3)
        (0 until i % 5).iterator.map(j => (i, j))
      }
      assert(it.toSeq == expected, s"tasks=$tasks window=$window")
    }
    assert(awaitNoTasks("ordered-order-").isEmpty)
  }

  test("ordered keeps at most `window` indices produced but not yet consumed") {
    for (window <- Seq(1, 2, 4)) {
      val received = new AtomicInteger
      val worst    = new AtomicInteger
      val it = Parallel.ordered("ordered-window", 30, 6, window) { i =>
        // Each index has one element, so indices before the last one
        // received are consumed: at most `window` may be ahead of it.
        worst.accumulateAndGet(i + 1 - received.get(), math.max)
        Iterator(i)
      }
      while (it.hasNext) {
        Thread.sleep(2)
        it.next()
        received.incrementAndGet()
      }
      assert(received.get() == 30)
      assert(worst.get() <= window, s"window=$window")
      assert(worst.get() == window, s"window=$window: producers never ran ahead")
    }
  }

  test("a failure at a later index surfaces while an earlier index is being consumed") {
    val release  = new CountDownLatch(1)
    val received = new CountDownLatch(1)
    val held     = new AtomicBoolean(true)
    val it = Parallel.ordered("ordered-fail", 3, 3, 3) {
      case 0 => Iterator(0) ++ Iterator.continually { release.await(10, TimeUnit.SECONDS); held.set(false); 1 }.take(1)
      case 1 => Iterator(10)
      case 2 => received.await(); throw new IllegalStateException("index 2 failed")
    }
    // Index 2 fails once the consumer has index 0's first element, and
    // index 0 holds its second element back until the latch opens: the
    // failure must wake the consumer inside index 0.
    val seen = Seq.newBuilder[Int]
    val e = intercept[IllegalStateException] {
      while (it.hasNext) { seen += it.next(); received.countDown() }
    }
    assert(e.getMessage == "index 2 failed")
    assert(held.get() && seen.result() == Seq(0))
    release.countDown()
    assert(awaitNoTasks("ordered-fail-").isEmpty)
  }

  test("close() frees the producers that wait for a slot") {
    val it = Parallel.ordered("ordered-close", 10, 3, 1)(i => Iterator(i, i))
    assert(it.next() == 0)
    // Two tasks now wait for the one slot, which index 0 holds.
    it.close()
    assert(!it.hasNext)
    assert(awaitNoTasks("ordered-close-").isEmpty)
  }

  test("a producer stops without waiting for a slot once every index is taken") {
    val produced = new CountDownLatch(2)
    val it = Parallel.ordered("ordered-abandon", 2, 2, 2) { i => produced.countDown(); Iterator(i) }
    assert(it.next() == 0)
    assert(produced.await(5, TimeUnit.SECONDS))
    // The consumer abandons the iterator without closing it: both slots
    // stay taken, and no task may wait for one.
    assert(awaitNoTasks("ordered-abandon-").isEmpty)
  }

  test("ordered over no indices is empty") {
    assert(Parallel.ordered("ordered-empty", 0, 2, 1)(_ => Iterator(1)).isEmpty)
  }
}
