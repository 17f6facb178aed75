package repro.selector

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.storage.{LocalFileSystemWrapper, SampleColumns}

class TssWritersSpec extends AnyFunSuite {
  private val fs = new LocalFileSystemWrapper

  test("selection writes each partition as one file") {
    for (records <- Seq(3000, 25000, 75000)) withTmpDir { dir =>
      val tss = new TriggerSampleStorage(fs, s"$dir/tss")
      val ctx = SelectorContext(new LocalBinaryBackend(fs, s"$dir/backend"), tss, partitionSize = records)
      val s   = new NewDataStrategy(ctx, resetAfterTrigger = true)
      val keys = Array.tabulate(records)(i => 7L * i + 3)
      s.inform(SampleColumns(keys, keys.map(_ % 5), keys))
      val tts = s.onTrigger()
      assert(tts.numPartitions == 1 && tts.totalSamples == records)
      assert(fs.list(s"$dir/tss/trigger_000000").size == 1, s"$records records")

      // The files a share is read from do not change the share.
      val copy = new TriggerSampleStorage(fs, s"$dir/copy")
      copy.writePartition(0, 0, tss.readPartition(0, 0), numThreads = 4)
      assert(fs.list(s"$dir/copy/trigger_000000").size == 4)
      for (workers <- 1 to 3; w <- 0 until workers)
        assert(tss.readWorkerShare(0, 0, w, workers) == copy.readWorkerShare(0, 0, w, workers),
          s"$records records, worker $w of $workers")
      ctx.backend.close()
    }
  }
}
