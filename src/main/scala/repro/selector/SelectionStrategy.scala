package repro.selector

import org.apache.spark.sql.SparkSession
import repro.util.Rng
import scala.annotation.nowarn

/** A newly arrived sample, before the selector tags it with the trigger it
  * belongs to.
  */
final case class NewSample(key: Long, label: Long, timestampSec: Long)

/** How the trainer should downsample the presampled trigger training set
  * (§4.1.2): which policy, the kept fraction, and whether it runs
  * sample-then-batch or batch-then-sample.
  */
final case class DownsamplingConfig(name: String, ratio: Double, sampleThenBatch: Boolean = true) {
  require(ratio > 0 && ratio <= 1.0, s"downsampling ratio must be in (0,1], got $ratio")
}

/** Everything a selection strategy needs from its environment: the metadata
  * backend for state, the TSS for persisting the selected keys/weights, the
  * TSS partition size and a base seed. `spark` is read by nothing (the
  * `nowarn` keeps the case class's own generated members from warning).
  */
@nowarn("cat=deprecation")
final case class SelectorContext(backend: MetadataBackend, tss: TriggerSampleStorage,
                                 partitionSize: Int, seed: Long = 0L,
                                 @deprecated("read by nothing; removed together with " +
                                   "perfbench's PipelineDriver (ROADMAP item 9)", "0.1")
                                 spark: Option[SparkSession] = None) {
  require(partitionSize > 0, "partitionSize must be positive")
}

/** A data selection policy (§3.1, §4.1.2): informed of every arriving
  * sample, it produces the trigger training set D_x on each trigger.
  */
trait SelectionStrategy {
  /** Update policy state with newly arrived samples. */
  def inform(samples: Seq[NewSample]): Unit

  /** Select D_x for the next trigger, persist it via the TSS, advance the
    * internal trigger counter, and (if configured) reset state.
    */
  def onTrigger(): TriggerTrainingSet

  /** Downsampling the trainer must apply on top of this presampling, if any. */
  def downsampling: Option[DownsamplingConfig] = None

  /** Trigger id the next [[onTrigger]] call will produce. */
  def nextTriggerId: Int

  /** Force the next trigger id (used by [[PolicyScheduler]] so a strategy
    * activated mid-pipeline does not restart at trigger 0 and overwrite an
    * earlier strategy's TSS files).
    */
  def seekTrigger(triggerId: Int): Unit
}

/** Shared plumbing for offline presampling strategies: informed samples are
  * persisted to the metadata backend tagged with the in-progress trigger;
  * on trigger the concrete policy selects from the backend state, the
  * selection is cut into fixed-size partitions and persisted through the
  * TSS, and the state is optionally reset (§4.1.2, Fig. 3).
  *
  * @param limit optional cap on the number of selected samples
  */
abstract class AbstractSelectionStrategy(protected val ctx: SelectorContext,
                                         val resetAfterTrigger: Boolean,
                                         val limit: Option[Int] = None)
    extends SelectionStrategy {
  protected var currentTrigger: Int = 0

  override def nextTriggerId: Int = currentTrigger

  override def seekTrigger(triggerId: Int): Unit = { currentTrigger = triggerId }

  override def inform(samples: Seq[NewSample]): Unit =
    ctx.backend.persist(samples.map(s => SeenSample(s.key, s.label, s.timestampSec, currentTrigger)))

  /** The policy proper: pick keys+weights for trigger `triggerId` from the
    * backend state. Because state is reset after each trigger when
    * `resetAfterTrigger` is set, `ctx.backend.scanAll()` always yields
    * exactly the policy's candidate pool.
    */
  protected def select(triggerId: Int): IndexedSeq[SelectedSample]

  override def onTrigger(): TriggerTrainingSet = {
    val t        = currentTrigger
    val selected = limit.fold(select(t))(l => select(t).take(l))
    val tts      = persistSelection(t, selected)
    if (resetAfterTrigger) resetState()
    currentTrigger += 1
    tts
  }

  /** Reset policy state after a trigger; default clears the backend. */
  protected def resetState(): Unit = ctx.backend.reset()

  /** Cut `selected` into fixed-size partitions and persist each through the
    * TSS with 4 writer threads per partition (§4.2.2).
    */
  protected final def persistSelection(triggerId: Int,
                                       selected: IndexedSeq[SelectedSample]): TriggerTrainingSet = {
    val parts = selected.grouped(ctx.partitionSize).toIndexedSeq
    parts.zipWithIndex.foreach { case (p, i) =>
      ctx.tss.writePartition(triggerId, i, p, numThreads = 4)
    }
    TriggerTrainingSet(triggerId, parts.length, selected.length.toLong, ctx.tss)
  }

  /** Deterministic per-(key, trigger) ordering hash used by sampling
    * policies, so runs are reproducible.
    */
  protected final def orderHash(key: Long, triggerId: Int): Long =
    Rng.mix2(key, ctx.seed ^ (triggerId.toLong * 0x9E3779B97F4A7C15L))
}
