package repro.selector

import org.scalatest.funsuite.AnyFunSuite
import java.util.concurrent.atomic.AtomicInteger
import repro.TestUtil.{ForwardingFs, withTmpDir}
import repro.storage.LocalFileSystemWrapper

class TriggerSampleStorageSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  private def samples(n: Int): IndexedSeq[SelectedSample] =
    (0 until n).map(i => SelectedSample(i.toLong + 1, 1.0 + i * 0.5))

  test("write/read roundtrips a partition") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(10), numThreads = 1)
      assert(tss.readPartition(0, 0) == samples(10))
    }
  }

  test("multi-threaded write preserves the record order") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(100), numThreads = 7)
      assert(tss.readPartition(0, 0) == samples(100))
    }
  }

  test("writer-thread count caps at the partition size") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(3), numThreads = 8)
      assert(tss.readPartition(0, 0) == samples(3))
    }
  }

  test("partitionSize counts all records across writer files") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(1, 0, samples(57), numThreads = 4)
      assert(tss.partitionSize(1, 0) == 57L)
    }
  }

  test("numPartitions counts distinct partitions of a trigger") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(10), 2)
      tss.writePartition(0, 1, samples(10), 2)
      tss.writePartition(0, 2, samples(4), 2)
      tss.writePartition(1, 0, samples(4), 2) // other trigger
      assert(tss.numPartitions(0) == 3)
      assert(tss.numPartitions(1) == 1)
    }
  }

  test("worker shares partition a partition without overlap or loss") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(103), numThreads = 4)
      for (numWorkers <- Seq(1, 2, 3, 5, 8, 16)) {
        val shares = (0 until numWorkers).map(w => tss.readWorkerShare(0, 0, w, numWorkers))
        assert(shares.flatten == samples(103), s"workers=$numWorkers")
        // Shares are balanced within one record.
        val sizes = shares.map(_.size)
        assert(sizes.max - sizes.min <= 1, s"workers=$numWorkers sizes=$sizes")
      }
    }
  }

  test("worker shares reassemble across mismatched writer-thread counts") {
    withTmpDir { dir =>
      for ((threads, workers) <- Seq((1, 4), (3, 2), (5, 7), (8, 3))) {
        val tss = new TriggerSampleStorage(fs, s"$dir/$threads-$workers")
        tss.writePartition(0, 0, samples(61), threads)
        val joined = (0 until workers).flatMap(w => tss.readWorkerShare(0, 0, w, workers))
        assert(joined == samples(61), s"threads=$threads workers=$workers")
      }
    }
  }

  test("readWorkerShare validates the worker id") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(4), 1)
      intercept[IllegalArgumentException] { tss.readWorkerShare(0, 0, 2, 2) }
      intercept[IllegalArgumentException] { tss.readWorkerShare(0, 0, -1, 2) }
    }
  }

  test("empty partitions are rejected") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      intercept[IllegalArgumentException] { tss.writePartition(0, 0, IndexedSeq.empty, 1) }
    }
  }

  test("readTrigger concatenates partitions in order") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      val all = samples(25)
      all.grouped(10).zipWithIndex.foreach { case (p, i) => tss.writePartition(2, i, p, 3) }
      assert(tss.readTrigger(2) == all)
    }
  }

  test("weights survive the roundtrip bit-exactly") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      val ss = IndexedSeq(SelectedSample(1, 0.1), SelectedSample(2, 1e-300),
        SelectedSample(3, math.Pi), SelectedSample(4, 1e300))
      tss.writePartition(0, 0, ss, 2)
      assert(tss.readPartition(0, 0) == ss)
    }
  }

  test("triggers are isolated from each other") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(5), 1)
      tss.writePartition(1, 0, samples(9), 1)
      assert(tss.readPartition(0, 0).size == 5)
      assert(tss.readPartition(1, 0).size == 9)
    }
  }

  test("share reads and partition sizes derive file names instead of listing") {
    withTmpDir { dir =>
      val lists = new AtomicInteger(0)
      val counting = new ForwardingFs {
        override def list(path: String): Seq[String] = { lists.incrementAndGet(); super.list(path) }
      }
      val tss = new TriggerSampleStorage(counting, dir)
      // 3 records with 8 writer threads: only w0..w2 exist.
      tss.writePartition(0, 0, samples(3), numThreads = 8)
      tss.writePartition(0, 1, samples(61), numThreads = 4)
      assert(tss.partitionSize(0, 0) == 3L && tss.partitionSize(0, 1) == 61L)
      for (workers <- Seq(1, 2, 5)) {
        assert((0 until workers).flatMap(w => tss.readWorkerShare(0, 0, w, workers)) == samples(3))
        assert((0 until workers).flatMap(w => tss.readWorkerShare(0, 1, w, workers)) == samples(61))
      }
      assert(tss.readPartition(0, 1) == samples(61))
      assert(lists.get == 0)
    }
  }

  test("rewriting a partition with fewer writers drops the old tail") {
    withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, dir)
      tss.writePartition(0, 0, samples(40), numThreads = 4)
      tss.writePartition(0, 0, samples(10), numThreads = 2)
      assert(tss.readPartition(0, 0) == samples(10))
    }
  }

  test("a failing writer thread fails writePartition") {
    withTmpDir { dir =>
      val broken = new ForwardingFs {
        override def write(path: String, bytes: Array[Byte]): Unit =
          if (path.endsWith("_w00001.tss")) throw new java.io.IOException("disk full")
          else super.write(path, bytes)
      }
      val tss = new TriggerSampleStorage(broken, dir)
      val ex = intercept[java.io.IOException] { tss.writePartition(0, 0, samples(12), numThreads = 3) }
      assert(ex.getMessage == "disk full")
    }
  }
}
