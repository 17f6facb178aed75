package repro.selector

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.storage.{LocalFileSystemWrapper, SampleColumns}

/** Allocation guard of the selector layers (inform/persist → select → TSS
  * write). Allocated bytes do not depend on timing, so the bound holds on a
  * busy machine too. The row-at-a-time selector this replaced allocated
  * about 360 B per sample here; the columnar path allocates about 114
  * (see CHANGES.md).
  */
class SelectorAllocationSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper
  private val Samples = 100000
  private val BoundBytesPerSample = 228.0

  /** Bytes allocated so far by each live thread, by thread id. */
  private def allocatedByThread(): Map[Long, Long] = {
    val mx  = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val ids = mx.getAllThreadIds
    ids.zip(mx.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  test("one 100 k-sample inform → onTrigger on the local backend stays under its allocation bound") {
    withTmpDir { dir =>
      val keys   = Array.tabulate(Samples)(i => i + 1L)
      val labels = Array.tabulate(Samples)(i => (i % 10).toLong)
      val batch  = SampleColumns(keys, labels, keys.clone())
      def round(r: Int): Double = {
        val ctx = SelectorContext(new LocalBinaryBackend(fs, s"$dir/lb$r"),
          new TriggerSampleStorage(fs, s"$dir/tss$r"), partitionSize = 75000)
        val s = new NewDataStrategy(ctx, resetAfterTrigger = true)
        val before = allocatedByThread()
        (0 until Samples by 10000).foreach(from => s.inform(batch.slice(from, from + 10000)))
        val tts = s.onTrigger()
        val after = allocatedByThread()
        assert(tts.totalSamples == Samples)
        after.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum.toDouble / Samples
      }
      // The first rounds pay class loading and compilation.
      val perSample = (0 until 5).map(round).drop(2).min
      info(f"$perSample%.1f B allocated per sample")
      assert(perSample < BoundBytesPerSample, f"$perSample%.1f B per sample")
    }
  }
}
