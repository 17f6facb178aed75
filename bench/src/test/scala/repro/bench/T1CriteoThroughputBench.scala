package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir

/** Table T1 (paper Fig. 7): Criteo-lite end-to-end training throughput
  * over the (workers, prefetched partitions, parallel prefetch requests,
  * partition size, storage threads) grid. The trigger is scaled down 100×
  * from the paper's 30 M samples; partition sizes keep the paper's small
  * (~1.5 batches) vs large (~38 batches) ratio to the batch size.
  */
class T1CriteoThroughputBench extends AnyFunSuite {

  test("T1: throughput grid and §5.1.1 shape") {
    withTmpDir { dir =>
      val cfg = Tables.T1Config()
      val (table, res) = Tables.t1(dir, cfg)
      println(table)

      def r(part: Int, st: Int, w: Int, b: Int, p: Int): Double = res((part, st, w, b, p))
      val (small, large) = (cfg.smallPartition, cfg.largePartition)

      // Each assertion below as (name, left side, right side, the factor
      // left / right must exceed), printed first so every margin is logged.
      val margins = Seq(
        ("1 prefetch helps 1 worker (large)", r(large, 1, 1, 1, 1), r(large, 1, 1, 0, 1), 1.05),
        ("2 16 workers vs 1 (large)", r(large, 1, 16, 1, 1), r(large, 1, 1, 1, 1), 1.5),
        ("3 large vs small at 16 workers", r(large, 1, 16, 1, 1), r(small, 1, 16, 1, 1), 1.0),
        ("4 1 vs 8 storage threads (small, 16 workers)", r(small, 1, 16, 0, 1), r(small, 8, 16, 0, 1), 1.0))
      margins.foreach { case (name, left, right, factor) =>
        println(f"T1 margin $name%-46s $left%9.1f / $right%9.1f = ${left / right}%6.3f (needs > $factor%.2f)")
      }

      // Shape assertions from §5.1.1, with thresholds far looser than the
      // paper's factors to tolerate machine noise.
      // 1. Prefetching one partition helps a single worker — asserted on
      //    the large partitions, which the paper notes "reap greater
      //    benefits" (paper: 1.31× there).
      assert(r(large, 1, 1, 1, 1) > r(large, 1, 1, 0, 1) * 1.05,
        "prefetching one partition should help a single worker (large partitions)")
      // 2. More workers help: 16 workers >> 1 worker (large partitions).
      assert(r(large, 1, 16, 1, 1) > r(large, 1, 1, 1, 1) * 1.5,
        "16 workers should be well above 1 worker")
      // 3. At 16 workers, large partitions beat small partitions.
      assert(r(large, 1, 16, 1, 1) > r(small, 1, 16, 1, 1),
        "large partitions should win at 16 workers")
      // 4. 8 storage threads with many workers degrade vs 1 thread
      //    (the overload effect) on small partitions.
      assert(r(small, 8, 16, 0, 1) < r(small, 1, 16, 0, 1),
        "8 storage threads at 16 workers should overload the metadata store")
    }
  }
}
