package repro.modelstorage

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.{ForwardingFs, withTmpDir}
import repro.storage.LocalFileSystemWrapper
import repro.util.Rng

class ModelStorageSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  private def weights(n: Int, seed: Long): Array[Double] =
    Array.tabulate(n)(i => Rng.gaussian(Rng.mix2(seed, i)))

  test("full model roundtrips bit-exactly") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir)
      val w  = weights(1000, 1)
      ms.store(0, w)
      assert(ms.load(0).toSeq == w.toSeq)
    }
  }

  test("every model is full with interval 1") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir)
      (0 until 4).foreach(i => assert(ms.isFullModel(i)))
    }
  }

  test("incremental chain restores every model exactly") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir, fullModelEverySteps = 3)
      val ws = (0 until 7).map(i => weights(500, i))
      ws.zipWithIndex.foreach { case (w, i) => ms.store(i, w) }
      ws.zipWithIndex.foreach { case (w, i) =>
        assert(ms.load(i).toSeq == w.toSeq, s"model $i")
      }
    }
  }

  test("I-frame / P-frame pattern matches the interval") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir, fullModelEverySteps = 3)
      assert(ms.isFullModel(0) && !ms.isFullModel(1) && !ms.isFullModel(2))
      assert(ms.isFullModel(3) && !ms.isFullModel(4))
    }
  }

  test("small deltas compress far better than full snapshots") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir, fullModelEverySteps = 10)
      val base = weights(20000, 1)
      ms.store(0, base)
      // Model 1 differs in only 1% of the weights.
      val drifted = base.clone()
      (0 until 200).foreach(i => drifted(i * 100) += 0.5)
      ms.store(1, drifted)
      val fullSize  = ms.storedSize(0)
      val deltaSize = ms.storedSize(1)
      assert(deltaSize < fullSize / 5, s"delta $deltaSize vs full $fullSize")
      assert(ms.load(1).toSeq == drifted.toSeq)
    }
  }

  test("unchanged weights produce a near-empty delta") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir, fullModelEverySteps = 5)
      val w  = weights(10000, 2)
      ms.store(0, w)
      ms.store(1, w)
      assert(ms.storedSize(1) < 1000)
      assert(ms.load(1).toSeq == w.toSeq)
    }
  }

  test("loading an unstored model fails") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir)
      intercept[IllegalArgumentException] { ms.load(0) }
    }
  }

  test("delta against a differently-sized base fails") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir, fullModelEverySteps = 2)
      ms.store(0, weights(10, 1))
      intercept[IllegalArgumentException] { ms.store(1, weights(11, 1)) }
    }
  }

  test("interval must be >= 1") {
    withTmpDir { dir =>
      intercept[IllegalArgumentException] { new ModelStorage(fs, dir, 0) }
    }
  }

  test("extreme values survive compression") {
    withTmpDir { dir =>
      val ms = new ModelStorage(fs, dir, fullModelEverySteps = 2)
      val w = Array(0.0, -0.0, Double.MinPositiveValue, 1e308, -1e308, math.Pi)
      ms.store(0, w)
      ms.store(1, w.map(_ * 2))
      assert(java.util.Arrays.equals(ms.load(0), w))
      assert(java.util.Arrays.equals(ms.load(1), w.map(_ * 2)))
    }
  }

  test("storing a P-frame reads nothing and writes what a fresh instance writes") {
    withTmpDir { dir =>
      var reads   = 0
      var written = Map.empty[String, Array[Byte]]
      val cfs = new ForwardingFs {
        override def read(path: String, offset: Long, length: Int): Array[Byte] = {
          reads += 1; super.read(path, offset, length)
        }
        override def readAll(path: String): Array[Byte] = { reads += 1; super.readAll(path) }
        override def write(path: String, bytes: Array[Byte]): Unit = {
          written += path -> bytes; super.write(path, bytes)
        }
      }
      val ms = new ModelStorage(cfs, dir, fullModelEverySteps = 4)
      // Drifting weights, as successive triggers produce them.
      val ws = (0 until 9).scanLeft(weights(300, 0)) { (w, k) =>
        w.indices.map(i => if (i % 7 == k % 7) w(i) + 0.01 * k else w(i)).toArray
      }
      ws.indices.foreach { k =>
        val file = f"$dir/model_$k%06d.bin"
        reads = 0
        ms.store(k, ws(k))
        assert(reads == 0, s"model $k")
        if (!ms.isFullModel(k)) {
          val ours  = written(file)
          val fresh = new ModelStorage(cfs, dir, fullModelEverySteps = 4)
          assert(java.util.Arrays.equals(fresh.load(k - 1), ws(k - 1)))
          fresh.store(k, ws(k))
          assert(reads > 0, s"a fresh instance walks the chain for model $k")
          assert(java.util.Arrays.equals(written(file), ours), s"model $k")
        }
      }
      ws.indices.foreach { k =>
        reads = 0
        assert(java.util.Arrays.equals(new ModelStorage(cfs, dir, 4).load(k), ws(k)), s"model $k")
        assert(reads == k % 4 + 1, s"model $k")
      }
    }
  }
}
