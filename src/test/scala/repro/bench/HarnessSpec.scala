package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.withTmpDir
import repro.trainer.{ClocBytesParser, IdentityTransform}

class HarnessSpec extends AnyFunSuite {

  test("a local baseline worker failure fails the run") {
    withTmpDir { dir =>
      val corpus = Harness.clocCorpus(dir, samplesPerYear = 10, numClasses = 4,
        featureDim = 8, partitionSize = 10, years = 2004 to 2005)
      def run(): ThroughputResult = Harness.localThroughput(corpus, numWorkers = 2,
        batchSize = 4, new ClocBytesParser(8), IdentityTransform, Harness.clocModel(8, 4))
      try {
        assert(run().samples == 20)
        Harness.fs.write(corpus.registry.files(3).path + ".label", "not a label".getBytes)
        intercept[NumberFormatException](run())
      } finally corpus.close()
    }
  }
}
