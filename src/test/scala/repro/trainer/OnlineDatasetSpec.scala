package repro.trainer

import java.util.concurrent.TimeUnit
import java.util.concurrent.atomic.AtomicInteger
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.{awaitNoTasks, withTmpDir}
import repro.datagen.CriteoLite
import repro.selector.{SelectedSample, TriggerSampleStorage, TriggerTrainingSet}
import repro.storage.{LocalFileSystemWrapper, SampleRegistry, StorageService}
import repro.util.Rng
import scala.collection.mutable

class OnlineDatasetSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  /** A Criteo-lite corpus + a trigger training set over a key subset. */
  private def setup(dir: String, n: Int, partitionSize: Int,
                    everyKth: Int = 1): (SampleRegistry, StorageService, TriggerTrainingSet) = {
    val registry = new SampleRegistry
    val metas    = CriteoLite.generate(fs, registry, s"$dir/data", n, samplesPerFile = 64)
    val storage  = new StorageService(registry, fs, sendBufferSize = 50)
    val tss      = new TriggerSampleStorage(fs, s"$dir/tss")
    val selected = metas.map(_.key).zipWithIndex.collect {
      case (k, i) if i % everyKth == 0 => SelectedSample(k, 1.0 + (k % 3))
    }
    val parts = selected.grouped(partitionSize).toIndexedSeq
    parts.zipWithIndex.foreach { case (p, i) => tss.writePartition(0, i, p, 3) }
    (registry, storage, TriggerTrainingSet(0, parts.size, selected.size, tss))
  }

  private def cfg(workers: Int, prefetch: Int = 1, parallel: Int = 1,
                  storageThreads: Int = 1, batch: Int = 32) =
    OnlineDatasetConfig(workers, batch, prefetch, parallel, storageThreads)

  private def collectKeys(ds: OnlineDataset): Seq[Long] =
    ds.batches().flatMap(_.keys).toSeq

  test("delivers every selected key exactly once (single worker, no prefetch)") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 200, partitionSize = 64)
      val ds = new OnlineDataset(new TssSource(tts), storage,
        new CriteoBytesParser(32), IdentityTransform, cfg(1, prefetch = 0))
      val keys = collectKeys(ds)
      assert(keys.sorted == tts.tss.readTrigger(0).map(_.key).sorted)
      r.close()
    }
  }

  test("delivers every key once for all worker/prefetch combinations") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 300, partitionSize = 50)
      val expected = tts.tss.readTrigger(0).map(_.key).sorted
      for {
        workers  <- Seq(1, 2, 4, 7)
        prefetch <- Seq(0, 1, 3)
        parallel <- Seq(1, 2)
      } {
        val ds = new OnlineDataset(new TssSource(tts), storage,
          new CriteoBytesParser(32), IdentityTransform,
          cfg(workers, prefetch, parallel))
        val keys = collectKeys(ds)
        assert(keys.sorted == expected,
          s"workers=$workers prefetch=$prefetch parallel=$parallel: ${keys.size} keys")
      }
      r.close()
    }
  }

  test("weights flow through with their keys") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 120, partitionSize = 40)
      val ds = new OnlineDataset(new TssSource(tts), storage,
        new CriteoBytesParser(32), IdentityTransform, cfg(3, prefetch = 2))
      val got = ds.batches().flatMap(b => b.keys.zip(b.weights)).toMap
      tts.tss.readTrigger(0).foreach(s => assert(got(s.key) == s.weight))
      r.close()
    }
  }

  test("weights follow their keys in a share out of key order, for 1-3 storage threads") {
    withTmpDir { dir =>
      val registry = new SampleRegistry
      val metas    = CriteoLite.generate(fs, registry, s"$dir/data", 400, samplesPerFile = 64)
      val storage  = new StorageService(registry, fs, sendBufferSize = 16)
      val tss      = new TriggerSampleStorage(fs, s"$dir/tss")
      // Uniform sampling's order: by a per-key hash, so shares are not in key order.
      val keys    = metas.map(_.key).filter(_ % 3 != 0).sortBy(k => Rng.mix2(k, 5L)).toArray
      val weights = keys.map(k => 0.25 + (k % 7))
      (0 until 3).foreach(p => tss.writePartition(0, p, keys, weights, p * 100, math.min(keys.length, (p + 1) * 100), 2))
      val tts = TriggerTrainingSet(0, 3, keys.length.toLong, tss)
      for (threads <- 1 to 3; workers <- Seq(1, 2)) {
        val got = new OnlineDataset(new TssSource(tts), storage, new CriteoBytesParser(32), IdentityTransform,
          cfg(workers, storageThreads = threads)).batches().flatMap(b => b.keys.zip(b.weights)).toSeq
        assert(got.sortBy(_._1) == keys.zip(weights).toSeq.sortBy(_._1), s"threads=$threads workers=$workers")
      }
      registry.close()
    }
  }

  test("labels match the registry metadata") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 100, partitionSize = 30)
      val ds = new OnlineDataset(new TssSource(tts), storage,
        new CriteoBytesParser(32), IdentityTransform, cfg(2))
      val got = ds.batches().flatMap(b => b.keys.zip(b.labels)).toMap
      (1L to 100L).foreach(k => assert(got(k).toLong == CriteoLite.labelOf(k, 42L)))
      r.close()
    }
  }

  test("features come from the parser + transform chain") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 40, partitionSize = 20)
      val parser = new CriteoBytesParser(16)
      val t      = new NormalizeTransform(0f, 2f)
      val ds = new OnlineDataset(new TssSource(tts), storage, parser, t, cfg(2))
      val got = ds.batches().flatMap(b => b.keys.zip(b.features)).toMap
      (1L to 40L).foreach { k =>
        val expect = t(parser.parse(CriteoLite.record(k, 42L)))
        assert(got(k).toSeq == expect.toSeq)
      }
      r.close()
    }
  }

  test("batches respect the batch size (only final per worker is partial)") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 250, partitionSize = 100)
      val ds = new OnlineDataset(new TssSource(tts), storage,
        new CriteoBytesParser(16), IdentityTransform, cfg(2, batch = 32))
      val sizes = ds.batches().map(_.size).toSeq
      assert(sizes.sum == 250)
      assert(sizes.forall(_ <= 32))
      assert(sizes.count(_ < 32) <= 2) // at most one partial per worker
      r.close()
    }
  }

  test("sparse selection (every 3rd key) retrieves only the selected keys") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 150, partitionSize = 25, everyKth = 3)
      val ds = new OnlineDataset(new TssSource(tts), storage,
        new CriteoBytesParser(16), IdentityTransform, cfg(2, prefetch = 2))
      val keys = collectKeys(ds)
      assert(keys.size == 50)
      assert(keys.sorted == tts.tss.readTrigger(0).map(_.key).sorted)
      r.close()
    }
  }

  test("more workers than samples in a partition still delivers all") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 10, partitionSize = 4)
      val ds = new OnlineDataset(new TssSource(tts), storage,
        new CriteoBytesParser(16), IdentityTransform, cfg(8, prefetch = 2))
      assert(collectKeys(ds).sorted == (1L to 10L))
      r.close()
    }
  }

  test("any storage-thread count gives the round-robin batch sequence of the TSS shares") {
    withTmpDir { dir =>
      val (r, storage, _) = setup(dir, 300, partitionSize = 300)
      // Shuffled selection: storage returns each share in file order, which
      // here is key order, not TSS order.
      val selected = (1L to 300L).sortBy(k => Rng.mix(k)).filter(_ % 5 != 0)
        .map(k => SelectedSample(k, 0.5 + k % 4))
      val tss   = new TriggerSampleStorage(fs, s"$dir/tss-shuffled")
      val parts = selected.grouped(70).toIndexedSeq
      parts.zipWithIndex.foreach { case (p, i) => tss.writePartition(0, i, p, 3) }
      val tts = TriggerTrainingSet(0, parts.size, selected.size, tss)
      val reference = new ReferenceCriteoParser(16)

      for {
        workers  <- Seq(1, 2, 3)
        batch    <- Seq(7, 32, 64)
        prefetch <- Seq(0, 1, 2)
        parallel <- Seq(1, 2)
        threads  <- Seq(1, 2, 3)
      } {
        // Each worker streams its share of every partition, split into
        // `threads` contiguous parts of ceil(len / threads) keys, each part
        // in key order; batches are taken from the workers in turn, and a
        // worker leaves the rotation once it yields fewer than `batch` samples.
        val streams = (0 until workers).map { w =>
          parts.indices.flatMap { p =>
            val share = tss.readWorkerShare(0, p, w, workers)
            share.grouped(math.max(1, (share.size + threads - 1) / threads)).flatMap(_.sortBy(_.key))
          }
        }
        val pos      = Array.fill(workers)(0)
        val rotation = mutable.Queue(0 until workers: _*)
        val expected = mutable.ArrayBuffer.empty[Seq[SelectedSample]]
        while (rotation.nonEmpty) {
          val w = rotation.dequeue()
          val b = streams(w).slice(pos(w), pos(w) + batch)
          pos(w) += b.size
          if (b.size == batch) rotation.enqueue(w)
          if (b.nonEmpty) expected += b
        }
        val ds = new OnlineDataset(new TssSource(tts), storage, new CriteoBytesParser(16),
          IdentityTransform, cfg(workers, prefetch, parallel, threads, batch))
        val batches = ds.batches().toSeq
        val got     = batches.map(b => b.keys.toSeq.zip(b.weights.toSeq).map(SelectedSample.tupled))
        val where   = s"workers=$workers batch=$batch prefetch=$prefetch parallel=$parallel threads=$threads"
        assert(got == expected.toSeq, where)
        // Features, labels and the weights trained on them are bit-identical
        // to the ByteBuffer/StrictMath parse of the expected batches.
        val model  = new LogisticRegressionModel(reference.dim, SgdConfig(0.05, momentum = 0.9), seed = 3L)
        val oracle = new LogisticRegressionModel(reference.dim, SgdConfig(0.05, momentum = 0.9), seed = 3L)
        batches.zip(expected).foreach { case (b, e) =>
          val xs = e.map(s => reference.parse(CriteoLite.record(s.key, 42L))).toArray
          val ys = e.map(s => CriteoLite.labelOf(s.key, 42L).toInt).toArray
          assert(b.features.map(_.map(java.lang.Float.floatToRawIntBits).toSeq).toSeq ==
            xs.map(_.map(java.lang.Float.floatToRawIntBits).toSeq).toSeq, where)
          assert(b.labels.toSeq == ys.toSeq, where)
          model.trainBatch(b.features, b.labels, b.weights)
          oracle.trainBatch(xs, ys, e.map(_.weight).toArray)
        }
        assert(model.weights.map(java.lang.Double.doubleToRawLongBits).toSeq ==
          oracle.weights.map(java.lang.Double.doubleToRawLongBits).toSeq, where)
      }
      r.close()
    }
  }

  test("InMemorySource partitions and shares like the TSS") {
    val keys    = (1L to 103L).toArray
    val weights = keys.map(_ * 0.5)
    val src     = new InMemorySource(keys, weights, partitionSize = 10)
    assert(src.numPartitions == 11)
    assert(src.totalSamples == 103)
    for (workers <- Seq(1, 2, 5)) {
      val joined = (0 until src.numPartitions).flatMap { p =>
        (0 until workers).flatMap(w => src.workerShare(p, w, workers)._1)
      }
      assert(joined.sorted == keys.toSeq)
    }
  }

  test("a storage failure propagates to the consumer") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 50, partitionSize = 25)
      // Break the TSS by pointing a source at keys that don't exist.
      val src = new InMemorySource(Array(9999L), Array(1.0), 10)
      val ds = new OnlineDataset(src, storage, new CriteoBytesParser(16),
        IdentityTransform, cfg(1, prefetch = 1))
      intercept[NoSuchElementException] { ds.batches().toSeq }
      r.close()
    }
  }

  test("a prefetch failure on the last partition always reaches the consumer") {
    withTmpDir { dir =>
      val (r, storage, _) = setup(dir, 10, partitionSize = 10)
      val broken = new TrainingSetSource {
        override def numPartitions: Int = 1
        override def totalSamples: Long = 1
        override def workerShare(partition: Int, workerId: Int, numWorkers: Int): (Array[Long], Array[Double]) =
          throw new IllegalStateException("share read failed")
      }
      // The race between the prefetch thread's failure and its worker's
      // clean finish is narrow: repeat to make a lost failure show.
      (0 until 300).foreach { _ =>
        val ds = new OnlineDataset(broken, storage, new CriteoBytesParser(16),
          IdentityTransform, cfg(1, prefetch = 1))
        intercept[IllegalStateException] { ds.batches().toSeq }
      }
      r.close()
    }
  }

  test("a failing epoch leaves no data-path task running") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 200, partitionSize = 20)
      val calls  = new AtomicInteger
      val parser = new BytesParser {
        private val inner = new CriteoBytesParser(16)
        override def dim: Int = inner.dim
        override def parse(payload: Array[Byte]): Array[Float] =
          if (calls.incrementAndGet() == 61) throw new IllegalStateException("parse failed")
          else inner.parse(payload)
      }
      val ds = new OnlineDataset(new TssSource(tts), storage, parser, IdentityTransform,
        cfg(2, prefetch = 1, parallel = 1, storageThreads = 2))
      intercept[IllegalStateException] { ds.batches().toSeq }
      val left = awaitNoTasks("prefetch-", "storage-", "loader-")
      assert(left.isEmpty, s"still running: $left")
      r.close()
    }
  }

  /** A Criteo parser that counts its calls and throws on call `failAt`. */
  private final class CountingParser(failAt: Int = -1) extends BytesParser {
    val calls         = new AtomicInteger
    private val inner = new CriteoBytesParser(16)
    override def dim: Int = inner.dim
    override def parse(payload: Array[Byte]): Array[Float] =
      if (calls.incrementAndGet() == failAt) throw new IllegalStateException("parse failed")
      else inner.parse(payload)
  }

  test("a failing worker stops the other workers before they finish their shares") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 3000, partitionSize = 100)
      val parser = new CountingParser(failAt = 60)
      val ds = new OnlineDataset(new TssSource(tts), storage, parser, IdentityTransform,
        cfg(3, prefetch = 1, batch = 16))
      intercept[IllegalStateException] { ds.batches().toSeq }
      assert(awaitNoTasks("prefetch-", "storage-", "loader-").isEmpty)
      // Each worker's share is 1 000 samples. Had the two healthy workers
      // run on, they would have parsed 2 000 samples between them.
      assert(parser.calls.get() < 1000, s"${parser.calls.get()} samples parsed")
      r.close()
    }
  }

  test("behind a stalled consumer a worker parses about four batches ahead, plus the one in hand") {
    withTmpDir { dir =>
      val (r, _, tts) = setup(dir, 2000, partitionSize = 1000)
      val chunk   = 8
      val batch   = 32
      val storage = new StorageService(r, fs, sendBufferSize = chunk)
      val parser  = new CountingParser()
      val it = new OnlineDataset(new TssSource(tts), storage, parser, IdentityTransform,
        cfg(1, prefetch = 1, batch = batch)).batches()
      val consumed = it.next().size
      // What has been parsed beyond the consumed batch once the worker waits
      // (the unread rest of a chunk being cut is none here, as chunk
      // divides batch):
      //  - with a queue of q = max(2, ceil(4 * batch / chunk)) parsed chunks
      //    and batches cut by the consumer: the next batch, which the
      //    consumer cuts as soon as it hands one out, the full queue, and
      //    one chunk waiting for room: batch + q * chunk + chunk, which is
      //    5 * batch + chunk here;
      //  - with a buffer of 4 batches cut by the worker: the full buffer and
      //    one batch waiting for room, 5 * batch.
      // Both lie in [4 * batch, 5 * batch + chunk].
      val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(10)
      while (parser.calls.get() < consumed + 4 * batch && System.nanoTime() < deadline) Thread.sleep(10)
      Thread.sleep(200) // time to overrun the bound, were the worker unbounded
      val ahead = parser.calls.get() - consumed
      assert(ahead >= 4 * batch && ahead <= 5 * batch + chunk, s"$ahead samples parsed ahead")
      assert(it.map(_.size).sum == 2000 - consumed)
      assert(parser.calls.get() == 2000)
      r.close()
    }
  }

  test("a closed batches() iterator leaves no data-path task running") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 600, partitionSize = 300)
      for (prefetch <- Seq(0, 1, 2); threads <- Seq(1, 2); workers <- Seq(1, 3)) {
        val where = s"prefetch=$prefetch threads=$threads workers=$workers"
        val it = new OnlineDataset(new TssSource(tts), storage, new CriteoBytesParser(16), IdentityTransform,
          cfg(workers, prefetch, parallel = math.max(1, prefetch), storageThreads = threads, batch = 16)).batches()
        // Two batches of a share of at least 100 samples: mid-partition.
        assert(it.next().size == 16 && it.next().size == 16, where)
        it.close()
        assert(!it.hasNext, where)
        val left = awaitNoTasks("prefetch-", "storage-", "loader-")
        assert(left.isEmpty, s"$where: still running $left")
      }
      r.close()
    }
  }

  test("a repeated epoch reuses the data-path threads instead of starting new ones") {
    withTmpDir { dir =>
      val (r, storage, tts) = setup(dir, 800, partitionSize = 100)
      val ds = new OnlineDataset(new TssSource(tts), storage, new CriteoBytesParser(16),
        IdentityTransform, cfg(16, prefetch = 2, parallel = 2, storageThreads = 2))
      val threads = java.lang.management.ManagementFactory.getThreadMXBean
      (0 until 2).foreach(_ => collectKeys(ds)) // warm the pool
      val before = threads.getTotalStartedThreadCount
      assert(collectKeys(ds).size == 800)
      // A thread per task would start 16 workers + 32 prefetchers + 256
      // retrievals (8 partitions x 16 workers x 2 storage threads).
      assert(threads.getTotalStartedThreadCount - before < 32)
      r.close()
    }
  }

  test("config validation") {
    intercept[IllegalArgumentException] { OnlineDatasetConfig(0, 1, 1, 1, 1) }
    intercept[IllegalArgumentException] { OnlineDatasetConfig(1, 0, 1, 1, 1) }
    intercept[IllegalArgumentException] { OnlineDatasetConfig(1, 1, -1, 1, 1) }
    intercept[IllegalArgumentException] { OnlineDatasetConfig(1, 1, 1, 0, 1) }
    intercept[IllegalArgumentException] { OnlineDatasetConfig(1, 1, 1, 1, 0) }
  }
}
