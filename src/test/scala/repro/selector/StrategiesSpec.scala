package repro.selector

import repro.SparkSpec
import repro.TestUtil.withTmpDir
import repro.storage.LocalFileSystemWrapper

class StrategiesSpec extends SparkSpec {
  private val fs = new LocalFileSystemWrapper

  private def ctx(dir: String, backend: MetadataBackend,
                  partitionSize: Int = 10): SelectorContext =
    SelectorContext(backend, new TriggerSampleStorage(fs, s"$dir/tss"),
      partitionSize = partitionSize, seed = 99)

  private def newSamples(keys: Range, label: Long => Long = _ % 3): Seq[NewSample] =
    keys.map(k => NewSample(k.toLong, label(k.toLong), k.toLong))

  // ---------------- NewDataStrategy ----------------

  test("newdata: selects everything with weight 1") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new NewDataStrategy(c, resetAfterTrigger = true)
      s.inform(newSamples(1 to 25))
      val tts = s.onTrigger()
      assert(tts.totalSamples == 25)
      assert(tts.numPartitions == 3) // partition size 10
      val sel = tts.tss.readTrigger(0)
      assert(sel.map(_.key).sorted == (1L to 25L))
      assert(sel.forall(_.weight == 1.0))
      c.backend.close()
    }
  }

  test("newdata: reset-after-trigger trains on new data only") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new NewDataStrategy(c, resetAfterTrigger = true)
      s.inform(newSamples(1 to 10)); s.onTrigger()
      s.inform(newSamples(11 to 15))
      val tts = s.onTrigger()
      assert(tts.triggerId == 1)
      assert(tts.tss.readTrigger(1).map(_.key).sorted == (11L to 15L))
      c.backend.close()
    }
  }

  test("newdata: without reset, trains on the full history") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new NewDataStrategy(c, resetAfterTrigger = false)
      s.inform(newSamples(1 to 10)); s.onTrigger()
      s.inform(newSamples(11 to 15))
      val tts = s.onTrigger()
      assert(tts.totalSamples == 15)
      c.backend.close()
    }
  }

  test("newdata: limit caps the selection") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new NewDataStrategy(c, resetAfterTrigger = true, limit = Some(7))
      s.inform(newSamples(1 to 30))
      assert(s.onTrigger().totalSamples == 7)
      c.backend.close()
    }
  }

  test("newdata: empty trigger yields an empty training set") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new NewDataStrategy(c, resetAfterTrigger = true)
      val tts = s.onTrigger()
      assert(tts.totalSamples == 0 && tts.numPartitions == 0)
      c.backend.close()
    }
  }

  // ---------------- UniformRandomStrategy ----------------

  test("uniform: fraction selects ceil(f * n) distinct candidates") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new UniformRandomStrategy(c, resetAfterTrigger = true, fraction = Some(0.5))
      s.inform(newSamples(1 to 21))
      val tts = s.onTrigger()
      assert(tts.totalSamples == 11) // ceil(10.5)
      val sel = tts.tss.readTrigger(0).map(_.key)
      assert(sel.distinct.size == sel.size)
      assert(sel.forall(k => k >= 1 && k <= 21))
      c.backend.close()
    }
  }

  test("uniform: maxSamples caps the selection") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new UniformRandomStrategy(c, resetAfterTrigger = true, maxSamples = Some(5))
      s.inform(newSamples(1 to 50))
      assert(s.onTrigger().totalSamples == 5)
      c.backend.close()
    }
  }

  test("uniform: selection is deterministic in the seed") {
    withTmpDir { dir =>
      def run(sub: String): Seq[Long] = {
        val c = ctx(s"$dir/$sub", new DuckDbBackend)
        val s = new UniformRandomStrategy(c, resetAfterTrigger = true, fraction = Some(0.3))
        s.inform(newSamples(1 to 40))
        val keys = s.onTrigger().tss.readTrigger(0).map(_.key)
        c.backend.close()
        keys
      }
      assert(run("a") == run("b"))
    }
  }

  test("uniform: different triggers draw different subsets") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new UniformRandomStrategy(c, resetAfterTrigger = false, fraction = Some(0.4))
      s.inform(newSamples(1 to 50))
      val first  = s.onTrigger().tss.readTrigger(0).map(_.key).toSet
      val second = s.onTrigger().tss.readTrigger(1).map(_.key).toSet
      assert(first != second, "per-trigger hash should vary the draw")
      c.backend.close()
    }
  }

  test("uniform: requires a fraction or maxSamples") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      intercept[IllegalArgumentException] {
        new UniformRandomStrategy(c, resetAfterTrigger = true)
      }
      intercept[IllegalArgumentException] {
        new UniformRandomStrategy(c, true, fraction = Some(1.5))
      }
      c.backend.close()
    }
  }

  // ---------------- Balanced strategies ----------------

  test("label-balanced: equal share per label, min group without limit") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new LabelBalancedStrategy(c, resetAfterTrigger = true)
      // Labels: 0 -> 10 samples, 1 -> 5, 2 -> 3.
      val data = (1 to 10).map(k => NewSample(k, 0, k)) ++
                 (11 to 15).map(k => NewSample(k, 1, k)) ++
                 (16 to 18).map(k => NewSample(k, 2, k))
      s.inform(data)
      val tts = s.onTrigger()
      assert(tts.totalSamples == 9) // 3 per label
      val byLabel = tts.tss.readTrigger(0).map(_.key)
        .groupBy(k => data.find(_.key == k).get.label)
      assert(byLabel.values.forall(_.size == 3))
      c.backend.close()
    }
  }

  test("label-balanced: limit splits evenly across labels") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new LabelBalancedStrategy(c, resetAfterTrigger = true, limit = Some(6))
      s.inform(newSamples(1 to 30)) // labels 0,1,2 with 10 each
      val tts = s.onTrigger()
      assert(tts.totalSamples == 6) // 2 per label
      c.backend.close()
    }
  }

  test("trigger-balanced: equal share per arrival trigger") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new TriggerBalancedStrategy(c, resetAfterTrigger = false)
      s.inform(newSamples(1 to 12)); s.onTrigger()   // trigger 0: 12 samples
      s.inform(newSamples(13 to 16)); val tts = s.onTrigger() // trigger 1: 4
      assert(tts.totalSamples == 8) // min group (4) from each of 2 triggers
      c.backend.close()
    }
  }

  // ---------------- Every presampler on every backend ----------------

  /** Presamplers whose selection reads the metadata backend, by name. */
  private val presamplers: Seq[(String, SelectorContext => SelectionStrategy)] = Seq(
    "newdata" -> (c => new NewDataStrategy(c, resetAfterTrigger = true)),
    "uniform with fraction" ->
      (c => new UniformRandomStrategy(c, resetAfterTrigger = false, fraction = Some(0.25))),
    "uniform with maxSamples" ->
      (c => new UniformRandomStrategy(c, resetAfterTrigger = true, maxSamples = Some(7))),
    "label-balanced" -> (c => new LabelBalancedStrategy(c, resetAfterTrigger = true)),
    "label-balanced with limit" ->
      (c => new LabelBalancedStrategy(c, resetAfterTrigger = true, limit = Some(9))),
    "trigger-balanced" -> (c => new TriggerBalancedStrategy(c, resetAfterTrigger = false)))

  presamplers.foreach { case (name, make) =>
    test(s"$name: works identically on all three backends") {
      withTmpDir { dir =>
        val results = Seq(
          new DuckDbBackend,
          new LocalBinaryBackend(fs, s"$dir/lb"),
          new SparkParquetBackend(spark, s"$dir/pq")
        ).zipWithIndex.map { case (b, i) =>
          val s = make(ctx(s"$dir/run$i", b))
          // Two triggers, so the non-resetting policies select from history.
          val perTrigger = Seq(1 to 30, 31 to 42).map { keys =>
            s.inform(newSamples(keys))
            val tts = s.onTrigger()
            tts.tss.readTrigger(tts.triggerId).map(x => (x.key, x.weight))
          }
          b.close()
          perTrigger
        }
        assert(results.head.forall(_.nonEmpty))
        assert(results.distinct.size == 1,
          s"ordered (key, weight) per trigger differs across backends: $results")
      }
    }
  }

  // ---------------- GDumb ----------------

  test("gdumb: memory never exceeds its size") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new GDumbStrategy(c, memorySize = 10)
      s.inform(newSamples(1 to 100))
      assert(s.memoryCounts.values.sum == 10)
      c.backend.close()
    }
  }

  test("gdumb: memory is class-balanced after a skewed stream") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new GDumbStrategy(c, memorySize = 12)
      // 90 samples of class 0 first, then 10 of class 1, 10 of class 2.
      s.inform((1 to 90).map(k => NewSample(k, 0, k)))
      s.inform((91 to 100).map(k => NewSample(k, 1, k)))
      s.inform((101 to 110).map(k => NewSample(k, 2, k)))
      val counts = s.memoryCounts
      assert(counts(0L) == 4 && counts(1L) == 4 && counts(2L) == 4, s"counts $counts")
      c.backend.close()
    }
  }

  test("gdumb: under-full memory admits everything") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new GDumbStrategy(c, memorySize = 100)
      s.inform(newSamples(1 to 30))
      val tts = s.onTrigger()
      assert(tts.totalSamples == 30)
      c.backend.close()
    }
  }

  test("gdumb: trigger yields memory contents; memory persists without reset") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new GDumbStrategy(c, memorySize = 8)
      s.inform(newSamples(1 to 50))
      val t0 = s.onTrigger()
      assert(t0.totalSamples == 8)
      val t1 = s.onTrigger() // no new data; memory unchanged
      assert(t1.totalSamples == 8)
      assert(t0.tss.readTrigger(0).map(_.key).toSet == t1.tss.readTrigger(1).map(_.key).toSet)
      c.backend.close()
    }
  }

  test("gdumb: reset-after-trigger clears the memory") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = new GDumbStrategy(c, memorySize = 8, resetAfterTrigger = true)
      s.inform(newSamples(1 to 20))
      s.onTrigger()
      assert(s.memoryCounts.values.sum == 0)
      c.backend.close()
    }
  }

  // ---------------- Coreset + scheduler ----------------

  test("coreset: delegates presampling and carries the downsampling config") {
    withTmpDir { dir =>
      val c  = ctx(dir, new DuckDbBackend)
      val ds = DownsamplingConfig("GradNormCE", 0.5)
      val s  = new CoresetStrategy(new NewDataStrategy(c, resetAfterTrigger = true), ds)
      s.inform(newSamples(1 to 10))
      assert(s.onTrigger().totalSamples == 10)
      assert(s.downsampling.contains(ds))
      c.backend.close()
    }
  }

  test("scheduler: switches strategies at the configured trigger") {
    withTmpDir { dir =>
      val c    = ctx(dir, new DuckDbBackend)
      val all  = new NewDataStrategy(c, resetAfterTrigger = true)
      val half = new UniformRandomStrategy(c, resetAfterTrigger = true, fraction = Some(0.5))
      val sched = new PolicyScheduler(Seq(0 -> all, 2 -> half))
      sched.inform(newSamples(1 to 10)); assert(sched.onTrigger().totalSamples == 10)
      sched.inform(newSamples(11 to 20)); assert(sched.onTrigger().totalSamples == 10)
      sched.inform(newSamples(21 to 30)); assert(sched.onTrigger().totalSamples == 5)
      c.backend.close()
    }
  }

  test("scheduler: trigger ids keep increasing across the switch") {
    withTmpDir { dir =>
      val c     = ctx(dir, new DuckDbBackend)
      val a     = new NewDataStrategy(c, resetAfterTrigger = true)
      val b     = new NewDataStrategy(c, resetAfterTrigger = true, limit = Some(2))
      val sched = new PolicyScheduler(Seq(0 -> a, 1 -> b))
      sched.inform(newSamples(1 to 4))
      val t0 = sched.onTrigger()
      sched.inform(newSamples(5 to 8))
      val t1 = sched.onTrigger()
      assert(t0.triggerId == 0 && t1.triggerId == 1)
      assert(t1.tss.readTrigger(1).size == 2)
      // Trigger 0's TSS files were not overwritten by the second strategy.
      assert(t0.tss.readTrigger(0).size == 4)
      c.backend.close()
    }
  }

  test("scheduler: downsampling is that of the strategy that served the trigger") {
    withTmpDir { dir =>
      val c  = ctx(dir, new DuckDbBackend)
      val ds = DownsamplingConfig("GradNormCE", 0.5)
      val sched = new PolicyScheduler(Seq(
        0 -> new NewDataStrategy(c, resetAfterTrigger = true),
        2 -> new CoresetStrategy(new NewDataStrategy(c, resetAfterTrigger = true), ds),
        4 -> new NewDataStrategy(c, resetAfterTrigger = true)))
      // Read after onTrigger, where the supervisor hands it to the trainer.
      val perTrigger = (0 until 5).map { t =>
        sched.inform(newSamples(t * 10 + 1 to t * 10 + 10))
        sched.onTrigger()
        sched.downsampling
      }
      assert(perTrigger == Seq(None, None, Some(ds), Some(ds), None))
      c.backend.close()
    }
  }

  test("scheduler: must cover trigger 0") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      intercept[IllegalArgumentException] {
        new PolicyScheduler(Seq(1 -> new NewDataStrategy(c, true)))
      }
      c.backend.close()
    }
  }

  test("factory: builds every named strategy") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      assert(StrategyFactory.strategy("NewDataStrategy", Map.empty, None, c)
        .isInstanceOf[NewDataStrategy])
      assert(StrategyFactory.strategy("UniformRandomStrategy",
        Map("fraction" -> "0.5"), None, c).isInstanceOf[UniformRandomStrategy])
      assert(StrategyFactory.strategy("LabelBalancedStrategy", Map.empty, None, c)
        .isInstanceOf[LabelBalancedStrategy])
      assert(StrategyFactory.strategy("TriggerBalancedStrategy", Map.empty, None, c)
        .isInstanceOf[TriggerBalancedStrategy])
      assert(StrategyFactory.strategy("GDumbStrategy", Map("memory_size" -> "10"), None, c)
        .isInstanceOf[GDumbStrategy])
      assert(StrategyFactory.strategy("CoresetStrategy",
        Map("presampling" -> "NewDataStrategy"),
        Some(DownsamplingConfig("Loss", 0.5)), c).isInstanceOf[CoresetStrategy])
      intercept[IllegalArgumentException] {
        StrategyFactory.strategy("NopeStrategy", Map.empty, None, c)
      }
      intercept[IllegalArgumentException] {
        StrategyFactory.strategy("GDumbStrategy", Map.empty, None, c)
      }
      c.backend.close()
    }
  }

  test("factory: a downsampling config wraps any presampler in a coreset") {
    withTmpDir { dir =>
      val c = ctx(dir, new DuckDbBackend)
      val s = StrategyFactory.strategy("NewDataStrategy", Map.empty,
        Some(DownsamplingConfig("GradNormCE", 0.5)), c)
      assert(s.isInstanceOf[CoresetStrategy])
      assert(s.downsampling.nonEmpty)
      c.backend.close()
    }
  }
}
