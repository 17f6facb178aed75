package repro.util

import java.util.concurrent.atomic.AtomicLong

/** Compares [[FloatMath.log1pFloat]] with `(float) StrictMath.log1p` on every
  * float bit pattern of the fast range (2^-29 <= |v| <= 2^29, v > -1), or on
  * every `stride`-th one, on 4 threads. It prints the first 100 fallbacks
  * it meets, then the patterns checked, the fallbacks taken, the
  * mismatches and the wall time, and exits with status 1 on a mismatch.
  *
  * {{{
  * sbt "Test/runMain repro.util.Log1pExhaustiveCheck"
  * sbt 'set Test / javaOptions += "-XX:TieredStopAtLevel=1"' "Test/runMain repro.util.Log1pExhaustiveCheck"
  * sbt 'set Test / javaOptions += "-Xint"' "Test/runMain repro.util.Log1pExhaustiveCheck --stride 7"
  * }}}
  * Option: `--stride N` (default 1).
  */
object Log1pExhaustiveCheck {
  private val Threads = 4

  private def bits(v: Float): Int = java.lang.Float.floatToRawIntBits(v)

  /** The fast range as inclusive bit-pattern ranges, positive then negative. */
  val ranges: Seq[(Int, Int)] = Seq(
    (bits(FloatMath.MinFast.toFloat), bits(FloatMath.MaxFast.toFloat)),
    (bits(-FloatMath.MinFast.toFloat), bits(Math.nextUp(-1.0f))))

  def main(args: Array[String]): Unit = {
    val stride = args match {
      case Array("--stride", n) => n.toInt
      case Array()              => 1
      case _                    => sys.error("usage: Log1pExhaustiveCheck [--stride N]")
    }
    require(stride >= 1, "need stride >= 1")
    val checked, fallbacks, mismatches = new AtomicLong
    // Work items: blocks of 2^20 patterns, handed out through one counter.
    val blocks = ranges.flatMap { case (lo, hi) =>
      (lo.toLong to hi.toLong by (1L << 20)).map(s => (s, math.min(hi.toLong, s + (1L << 20) - 1)))
    }.toIndexedSeq
    val next    = new AtomicLong
    val started = System.nanoTime()
    val workers = (0 until Threads).map { _ =>
      val t = new Thread(() => {
        var b = next.getAndIncrement()
        while (b < blocks.size) {
          val (lo, hi) = blocks(b.toInt)
          var n, fb, bad = 0L
          // Stride over the global bit pattern, so blocks tile without gaps.
          var x = lo + Math.floorMod(-lo, stride.toLong)
          while (x <= hi) {
            val v    = java.lang.Float.intBitsToFloat(x.toInt)
            val want = StrictMath.log1p(v.toDouble).toFloat
            val fast = FloatMath.log1pFast(v)
            if (fast != fast) {
              fb += 1
              if (fallbacks.get + fb <= 100) println(f"fallback: v=$v%s (0x${x.toInt}%08x)")
            }
            if (bits(FloatMath.log1pFloat(v)) != bits(want)) {
              bad += 1
              System.err.println(f"mismatch: v=$v%s (0x${x.toInt}%08x)")
            }
            n += 1
            x += stride
          }
          checked.addAndGet(n); fallbacks.addAndGet(fb); mismatches.addAndGet(bad)
          b = next.getAndIncrement()
        }
      })
      t.start()
      t
    }
    workers.foreach(_.join())
    val seconds = (System.nanoTime() - started) / 1e9
    val vm = System.getProperty("java.vm.info", "")
    println(f"log1pFloat vs StrictMath.log1p ($vm%s, stride $stride, $Threads threads): " +
      f"${checked.get}%d patterns checked, ${fallbacks.get}%d fallbacks, " +
      f"${mismatches.get}%d mismatches, $seconds%.1f s")
    if (mismatches.get != 0) sys.exit(1)
  }
}
