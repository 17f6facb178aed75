package repro.selector

import org.apache.spark.sql.SparkSession
import repro.storage.SampleColumns
import repro.util.{LongSort, Rng}
import scala.annotation.nowarn

/** A newly arrived sample, before the selector tags it with the trigger it
  * belongs to.
  */
final case class NewSample(key: Long, label: Long, timestampSec: Long)

object NewSample {
  /** `samples` as columns, for the row forms of the columnar calls. */
  def columns(samples: Seq[NewSample]): SampleColumns = {
    val (keys, labels, ts) = (new Array[Long](samples.size), new Array[Long](samples.size), new Array[Long](samples.size))
    var i = 0
    samples.foreach { s => keys(i) = s.key; labels(i) = s.label; ts(i) = s.timestampSec; i += 1 }
    SampleColumns(keys, labels, ts)
  }
}

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
  def inform(batch: SampleColumns): Unit

  /** Row form of [[inform]]. */
  final def inform(samples: Seq[NewSample]): Unit = inform(NewSample.columns(samples))

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

/** Shared plumbing for presampling strategies: informed samples are
  * persisted to the metadata backend tagged with the in-progress trigger;
  * on trigger the concrete policy picks rows of its candidate pool, the
  * selection is cut into fixed-size partitions and persisted through the
  * TSS, and the state is optionally reset (§4.1.2, Fig. 3). The pool and
  * the selection stay primitive columns throughout.
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

  override def inform(batch: SampleColumns): Unit = ctx.backend.persist(currentTrigger, batch)

  /** The candidate pool, in key order. Because state is reset after each
    * trigger when `resetAfterTrigger` is set, the backend's rows are
    * exactly the policy's pool.
    */
  protected def candidates(): SeenColumns = ctx.backend.scan()

  /** The policy proper: the rows of `pool` to train on for trigger
    * `triggerId`, in training order.
    */
  protected def select(pool: SeenColumns, triggerId: Int): Array[Int]

  override def onTrigger(): TriggerTrainingSet = {
    val t    = currentTrigger
    val pool = candidates()
    val rows = select(pool, t)
    val keys = new Array[Long](limit.fold(rows.length)(math.min(_, rows.length)))
    var i = 0
    while (i < keys.length) { keys(i) = pool.keys(rows(i)); i += 1 }
    val tts = persistSelection(t, keys)
    if (resetAfterTrigger) resetState()
    currentTrigger += 1
    tts
  }

  /** Reset policy state after a trigger; default clears the backend. */
  protected def resetState(): Unit = ctx.backend.reset()

  /** Cut the selected `keys` into fixed-size partitions and persist each,
    * every key with weight 1, through the TSS as one writer file (§4.2.2).
    * Creating a file, not writing its bytes, sets the cost of a TSS write:
    * four writers cost more than one on small partitions and gained
    * nothing on 75 000-record ones.
    */
  private def persistSelection(triggerId: Int, keys: Array[Long]): TriggerTrainingSet = {
    val weights = new Array[Double](keys.length)
    java.util.Arrays.fill(weights, 1.0)
    val parts   = (keys.length + ctx.partitionSize - 1) / ctx.partitionSize
    (0 until parts).foreach { p =>
      ctx.tss.writePartition(triggerId, p, keys, weights, p * ctx.partitionSize,
        math.min(keys.length, (p + 1) * ctx.partitionSize), numThreads = 1)
    }
    TriggerTrainingSet(triggerId, parts, keys.length.toLong, ctx.tss)
  }

  /** `rows` of `pool` ordered by a deterministic per-(key, trigger) hash,
    * then key, so that sampling runs are reproducible. The pool is in key
    * order, so a stable sort by hash gives the (hash, key) order.
    */
  protected final def hashOrder(pool: SeenColumns, rows: Array[Int], triggerId: Int): Array[Int] = {
    val salt = ctx.seed ^ (triggerId.toLong * 0x9E3779B97F4A7C15L)
    val hash = new Array[Long](rows.length)
    var i = 0
    while (i < rows.length) { hash(i) = Rng.mix2(pool.keys(rows(i)), salt); i += 1 }
    val order = LongSort.order(hash, rows.length)
    i = 0
    while (i < order.length) { order(i) = rows(order(i)); i += 1 }
    order
  }
}
