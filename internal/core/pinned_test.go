package core

// TestPinnedResults holds every full-output pin of the package in one table.
// A row's pin is the SHA-256 of its result's %+v text (solution, weights,
// iterations, histories and every metric), so any drift in a driver's draws,
// rounds, words or charging moves one. A row that hits its pin on one worker
// and on four is deterministic and executor-independent; under -race the
// four-worker runs also enforce that RoundFuncs write only machine-owned state.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/setcover"
)

// pinnedRow is one pinned run; its pin is pins[key].
type pinnedRow struct {
	key     string
	inst    func() any // memoised: the rows of one instance share it, read-only
	run     func(in any, p Params) (any, error)
	p       Params
	workers []int               // the row runs once at each as p.Workers
	mapped  func() any          // if set, the instance reopened mapped: one more run, at Workers 4
	check   func(res any) error // a precondition the pin relies on
}

// pins is the table's pin column, keyed by row key.
var pins = map[string]string{
	"clique/complete/0.05":                               "d71aa5a93698b4ed6535d838f4b39349fc9099c6115e0c43f08dd094fc43fd69",
	"clique/complete/0.25":                               "7aeadbcb458ecefc310d4d43b68febbbf7cd2082cbea3de5286426a9c24a1857",
	"clique/cycle/0.05":                                  "e45501251b18c64c414802dd36e27ed3bb7c315abdef817b38088e84191ca763",
	"clique/cycle/0.25":                                  "2967819587fd090ac21f314b6f9eba45462f1d45201c1b977cb73d2be2199b87",
	"clique/empty/0.05":                                  "42670b8371b7812f1d95f380b7228be6426cf2918548281fa977b3f21142bd9a",
	"clique/empty/0.25":                                  "689c498ea83889f3d4651c61137a32af6122a9b9ab937e3a2cc054a789399d7d",
	"clique/medium/0.05":                                 "ae818312bcdf46123982e4a34f6cf08956517ad3c50abb4dc8535e5c6423337a",
	"clique/medium/0.25":                                 "dbfb9e0413a2ac435c3cd78b3a7a16a04b5c651b156c80b067db54a464bf504e",
	"clique/parallel/0.05":                               "459640a2779e5342980dd02e8bf551bbf6fe8a17586986459b21420add733b38",
	"clique/parallel/0.25":                               "14dc78794fde919ec98840fd232a216d532df4a2a736227cddd153df40aac357",
	"clique/path/0.05":                                   "502f5a01d498e1787225525daa84d21568d8168dd51c774c2137f5e90f82f8be",
	"clique/path/0.25":                                   "c6178a68f53609989fc5690906d7ba8b94fc444a03a0447c5962df6897318d36",
	"clique/planted/0.05":                                "56f3c51c6e7d812e582cc8f49264e6e7b91976995872add5a000c7e518867869",
	"clique/planted/0.25":                                "a8ed43270c49180b4942be991aad3fedc91363ad93717686a635c43924d27ec9",
	"clique/star/0.05":                                   "e7cb4d4a6325054b5e68a2ecf57b8491ca8632237aa621516a5d67fa017479b8",
	"clique/star/0.25":                                   "7ec1838d6f08b82ea634ef76f5ae25a7111a678f34df878bfaf5291f2f4e308d",
	"colouring/EdgeColouring/seed=1/mu=0.05":             "c2d734399c1c608aa6360be77175e7b532cf23a35d36d7d635ac0f1f16e153b7",
	"colouring/EdgeColouring/seed=1/mu=0.1":              "f8d0fecec76ffb78025b7f0a140c3e90d41527bbbb565b145237f8f628fa66a6",
	"colouring/EdgeColouring/seed=2/mu=0.05":             "7aa16d68c42d80e90a1fbf48c6c7dc4ce07b64fc7dd6404fcb1b81f03536b85b",
	"colouring/EdgeColouring/seed=2/mu=0.1":              "50aa55dee8867f51c16688a5b38d526b840833919bcd7a57f65f9741b017244b",
	"colouring/VertexColouring/seed=1/mu=0.05":           "2ae9fbdef8cb680642636307f69ebbae99f3288acdc6d0cbbcbb8e9230a2620d",
	"colouring/VertexColouring/seed=1/mu=0.1":            "ca87a786998f39e5fd00060ed99b183bb939751c659ac1fdc179ef1105bdad67",
	"colouring/VertexColouring/seed=2/mu=0.05":           "647ff2aa00c1e76b708f2810d3d75daf030f0cd306199507332a3addb15d3d56",
	"colouring/VertexColouring/seed=2/mu=0.1":            "b63878cadc288510de15f92df3be1847a5a5cbd2c745323a700223ca478c6217",
	"equiv/density/BMatching":                            "b567086e43ddaeb7d9c55c890d4b417f17518c771beb2d6f28faf5ad1bc23e5b",
	"equiv/density/EdgeColouring":                        "894ba02dd1240999be9796ebee2f8e7b39b6f62cb5ecebbbea785df78e8f7b6f",
	"equiv/density/FilteringMatching":                    "90b2856adb97fb32aff4b0515c1cbd57181a14fd5f62e5f5c914b6ee20287d92",
	"equiv/density/FilteringWeighted":                    "5421d7db67644bc8c28fc131970f6b711710f2395d8141ed608c5b1f9baedc32",
	"equiv/density/HGSetCover":                           "35a3239ac03585a07e0053d6408a1f0b6182615b59299d5eb077efbbf3e098b4",
	"equiv/density/HGSetCover-preprocess":                "26909c23206dc1422460b2469fc18ab947502e18ee0f03f3dd3e8b3df0dc73ac",
	"equiv/density/LubyMIS":                              "2b8af58e42c8420d8991723c87ebef60a744f83cfa364d3d5fb5c31cca477170",
	"equiv/density/MIS":                                  "cdba58c418452ecec71550cf9f0ff1d44e8e78b95180bd81a1f646868bb20974",
	"equiv/density/MISFast":                              "ea1c9fe2b6554c84b00559a1fdc5928926f17ec3431b64d22b7ec40b63cdda39",
	"equiv/density/MaximalClique":                        "90744507944c80a36cba302421e65a04a168c28f9a154b9ea7a28d8869a7bf79",
	"equiv/density/RLRMatching":                          "c4051f7d3a552bfde30bae16eee0e3816bfdd5827db692c2f0a5102ca3e5d044",
	"equiv/density/RLRSetCover-VC":                       "f01fb7eba4a6f947184c47b0951a0af5cdf082acfec064add3d128e57eba60b7",
	"equiv/density/RLRSetCover-general":                  "7594c0373686564d514dbfe93419f7f0d711d0c2df958132109ffac4459a4c78",
	"equiv/density/VertexColouring":                      "ba690c1280e3d8f4cd8993cd297e6194529f1d18e84cb1b6e829aec82851d3b8",
	"equiv/pa/BMatching":                                 "0495095828f6feb079f6cac566a2fbdf7a566973b300c03b8fbe080c7776726d",
	"equiv/pa/EdgeColouring":                             "c2629f2794d56383dba8ca273c1e7feb71a50c319405f91b1611eca8c28d1389",
	"equiv/pa/FilteringMatching":                         "e4b7fc3abf412b1889d43c3c6077b4a10f91f6513d60ba1460f878e2fcc37b1c",
	"equiv/pa/FilteringWeighted":                         "a6f42f86f8ecd9ffcc89d16f7dd42866a6c104821124628e64589e453b9c9a1a",
	"equiv/pa/HGSetCover":                                "327c3925a8a760b2fae5e48aa22cb6605704993f75158a4837bc510eca948158",
	"equiv/pa/HGSetCover-preprocess":                     "d4d912d7c02b59bc3fc47c6bd0d208ce91c5f13e340e59d92eb707e0bce1a3e8",
	"equiv/pa/LubyMIS":                                   "7f47ea26966b7ac770eae06766b8501e5c47e3328132fb128b14a9ae91089080",
	"equiv/pa/MIS":                                       "7282ff838da80edf41fe569cf0f90582638c8ca682700c38db1976fef9cf44ed",
	"equiv/pa/MISFast":                                   "5968f72dfabfbbe3233a06f26ac2529b6b9a04fd76762e5cafffacf1d8e969ec",
	"equiv/pa/MaximalClique":                             "9334fe05c48bfd17e0be26c1185cfe8d31fb474fd734cc2eb9ba032a92e4f0e8",
	"equiv/pa/RLRMatching":                               "9c62b6686efbdcaaef5def06e31b804241d4a59582c5715d1589c35ad3015c33",
	"equiv/pa/RLRSetCover-VC":                            "54499234380a18298960ddd9ab1855fbe7d711c1791f7d91fd81f0bae2fbaa6f",
	"equiv/pa/RLRSetCover-general":                       "edfc1416cc8bdbfaa4d1b1639f90da067faf23e3497bb6769ef9bbd5feef34a2",
	"equiv/pa/VertexColouring":                           "405aa0a3c969176abb0452485f94fbbc8cbe5d6e5c5644212aff86eecc2131a9",
	"filtering/FilteringMatching/seed=1/mu=0":            "e83a514f326219d396eb2e5012907f62a31863deda5887b810bca9e0e9561435",
	"filtering/FilteringMatching/seed=1/mu=0.05":         "72388811ebaca1a971afc7b3ccf8a321471928d07513395c220c8cccaf45e0c7",
	"filtering/FilteringMatching/seed=2/mu=0":            "cfd9f6aba80f5f9ee1904ea8804fdb6d5c811812750961674e454fe97db1ba88",
	"filtering/FilteringMatching/seed=2/mu=0.05":         "8dfa2cbc8cb5d2129fe6b8a85e83aac2a2d43ba59aabc7ac9da7422b4012a2d2",
	"filtering/FilteringWeightedMatching/seed=1/mu=0":    "6ce96c7c88f6dd6c5472e70d34b40645be049a4917909f8df8e314136059a463",
	"filtering/FilteringWeightedMatching/seed=1/mu=0.05": "001e818c97a291c4bc191e745ac4137737ba25e284fa7a205ce5ae7b4327ca34",
	"filtering/FilteringWeightedMatching/seed=2/mu=0":    "f4c0a6e637314c490180da0997acc6e6d4c223cdd12964f0b4b0af216eb6b216",
	"filtering/FilteringWeightedMatching/seed=2/mu=0.05": "2f2461dbcbf4e552859fece18be249344b3984f22473fb268bdf8bcc0c0dd0f1",
	"hg/mu=0.05":                                         "14114ddbfcf46215b01d925bc80f5da58727bd8c9bcfbcc549e3ca00a495a9fe",
	"hg/overflow":                                        "5a968f4426cb17a9d7473b49f0d2072847e0c19ae76f27e0ac5074ca4a8820d3",
	"hg/serve/preprocess":                                "af567d44deaabf9073068ac75f7a1396ada8411276b03302995e1317f5675661",
	"hg/serve/seed=1000000":                              "5e0def6c53beb8d5f80d0317cb6073decde9d4342e47153400f61091dc80031c",
	"hg/serve/seed=1000001":                              "93bbc7a2624b79f8bf7eca75060092ba6b19973e8cc9851b741d500bb2aad184",
	"hg/serve/seed=1000002":                              "6caf4cc12bd49dd4c1669976bd48fb120a744fe64180889a9331fc277f7f0e5e",
	"mis/density0.3/MIS/seed=1/mu=0.05":                  "30457364f56bfc350b712b1305a659e428d03cad6f29066ec588d80c701e3af3",
	"mis/density0.3/MIS/seed=1/mu=0.1":                   "1b02bc44dfa516e2f4c360e458903472e2e8f8ce50a7226e11a0d99aac1de494",
	"mis/density0.3/MIS/seed=1/mu=0.25":                  "780ee4678f5273e52acdaf840f8f03ebd4f9046a057a97d66c9e22467a4d17f2",
	"mis/density0.3/MIS/seed=2/mu=0.05":                  "30457364f56bfc350b712b1305a659e428d03cad6f29066ec588d80c701e3af3",
	"mis/density0.3/MIS/seed=2/mu=0.1":                   "1b02bc44dfa516e2f4c360e458903472e2e8f8ce50a7226e11a0d99aac1de494",
	"mis/density0.3/MIS/seed=2/mu=0.25":                  "52d742e275247c8d47dc7320fb0613594d907e0bbb772e8d023d9ab58e4eaf0f",
	"mis/density0.3/MIS/seed=3/mu=0.05":                  "30457364f56bfc350b712b1305a659e428d03cad6f29066ec588d80c701e3af3",
	"mis/density0.3/MIS/seed=3/mu=0.1":                   "1b02bc44dfa516e2f4c360e458903472e2e8f8ce50a7226e11a0d99aac1de494",
	"mis/density0.3/MIS/seed=3/mu=0.25":                  "a9dc9e63c14cde7e0be54b3974afbea675f654794878da8ff38b864c0cd4babc",
	"mis/density0.3/MISFast/seed=1/mu=0.05":              "2637228542ca60f4eeee989b81fbac99c8949e329f66e6d69c4d7f7097165440",
	"mis/density0.3/MISFast/seed=1/mu=0.1":               "44ab3fd3e5e6dd802b305c013800f190c801cb4629fc0a55dc21a1534dbddf64",
	"mis/density0.3/MISFast/seed=1/mu=0.25":              "cc4157adf301d7b43b87668c5ed41e616948dcbe5a40b15c125df21c20bb748e",
	"mis/density0.3/MISFast/seed=2/mu=0.05":              "ed10d0a790addc2da0913d494ab731bf95ad8c48d8d33e7231140bd90afb2389",
	"mis/density0.3/MISFast/seed=2/mu=0.1":               "81e43f106d831c392bc5a057cff12a805a2e4bbb80b65e2212a5e6921700b825",
	"mis/density0.3/MISFast/seed=2/mu=0.25":              "74cc663b14af0338a5997ca8a2f28f4c2554d63056eca71499830b0b13673ada",
	"mis/density0.3/MISFast/seed=3/mu=0.05":              "e4bb98cb09e7665f6b5dc8942bbb8818b2e2a9999320a12c9198d1053b75e439",
	"mis/density0.3/MISFast/seed=3/mu=0.1":               "12e5275af0e31fcf9ae44a30f99481b7eb2adff626043d257e5337dfb639a47d",
	"mis/density0.3/MISFast/seed=3/mu=0.25":              "67f6e6c0944f4e9dca8d32f10828a24fccc14e1c7999d6105b048df38b36a078",
	"mis/density0.5/MIS/seed=1/mu=0.05":                  "065722adac6a9e4fddb265a4df7b8946334a35cc228ff179ccdfa1e2ea42fdea",
	"mis/density0.5/MIS/seed=1/mu=0.1":                   "5e816261feec5a2f0b27344b2484be43ef014616d191cae0028a3c04e043938b",
	"mis/density0.5/MIS/seed=1/mu=0.25":                  "c5a60b4694280d051a46fee844e942b69f9ca82e9b075b62a449d46642a0e39c",
	"mis/density0.5/MIS/seed=2/mu=0.05":                  "728b64e7bf154de48fbe433a105698d0c2c84e9601f605b42eb089ab1988f0b2",
	"mis/density0.5/MIS/seed=2/mu=0.1":                   "12acfca4366a93d074bf6619a8ecd9db8845c4b4ccc95245c93b852243d95203",
	"mis/density0.5/MIS/seed=2/mu=0.25":                  "3239ed7b9cdf8ed4cac6d8add7624441517122c6696ef9f94f8ae45df7d8840e",
	"mis/density0.5/MIS/seed=3/mu=0.05":                  "03fe9ded2f4006b236ba857d304e8b95ab719af1ab463d440a39243d1400af45",
	"mis/density0.5/MIS/seed=3/mu=0.1":                   "0d1b03a5f20094f9fa1dd47ade9e8a2b71e3d63d466d6e8ed4bbfa26c00a02c6",
	"mis/density0.5/MIS/seed=3/mu=0.25":                  "3aa98d42b661d04f4fe643dbf1bf22ecd88485e4ff1cf52a13711ab197033698",
	"mis/density0.5/MISFast/seed=1/mu=0.05":              "6ed953e893327b7d25643acad190838a513701b1f8a7e44d0623be7aadee81cc",
	"mis/density0.5/MISFast/seed=1/mu=0.1":               "3abfa901fcba8e8b31c3f67f1edeb78f7dfab696d698c14f43174e08ee48f3e9",
	"mis/density0.5/MISFast/seed=1/mu=0.25":              "e137f5dec2a6c9ffd5fcd103a643ec06c4a790b662276ad54c3ee15a5b31428b",
	"mis/density0.5/MISFast/seed=2/mu=0.05":              "78f22ec2e85ad6787b0eaeba6cda79b9d5eeeb04d4ab896570f9fd6300347fc2",
	"mis/density0.5/MISFast/seed=2/mu=0.1":               "2879e27704d3ab2c1b16a272c51ea9feaae81c08f1d0b43c0b8cb3ea69bbb779",
	"mis/density0.5/MISFast/seed=2/mu=0.25":              "07a25e0aedf0773475c8299550669697cdb4ed52c6599aa6443e8285b654d2a1",
	"mis/density0.5/MISFast/seed=3/mu=0.05":              "1689fc4b8fad3373bc926f60e6029d458d0228a11b5de57149b6d69cc699807c",
	"mis/density0.5/MISFast/seed=3/mu=0.1":               "3c2498041685278fb8ae97f91c57ecb61456c6556125cc99ae795fea7118fee2",
	"mis/density0.5/MISFast/seed=3/mu=0.25":              "fd3b0532b029012a8dd4f590d057d3d1095e8733281b78d5cacf8055622fd715",
	"mis/empty/MIS/seed=1/mu=0.05":                       "bd3ec456e723373cfabce94044e05c80e34d844e8c9718a3e51e8aff9007d514",
	"mis/empty/MIS/seed=1/mu=0.1":                        "d37378e5218d0c3d1585ac3ad3944d9683b540552c3679c1ed73e924223e088b",
	"mis/empty/MIS/seed=1/mu=0.25":                       "16101c72774abb8c29987f760ca85897caae942a01300787b8f95574f09e8fea",
	"mis/empty/MIS/seed=2/mu=0.05":                       "bd3ec456e723373cfabce94044e05c80e34d844e8c9718a3e51e8aff9007d514",
	"mis/empty/MIS/seed=2/mu=0.1":                        "d37378e5218d0c3d1585ac3ad3944d9683b540552c3679c1ed73e924223e088b",
	"mis/empty/MIS/seed=2/mu=0.25":                       "16101c72774abb8c29987f760ca85897caae942a01300787b8f95574f09e8fea",
	"mis/empty/MIS/seed=3/mu=0.05":                       "bd3ec456e723373cfabce94044e05c80e34d844e8c9718a3e51e8aff9007d514",
	"mis/empty/MIS/seed=3/mu=0.1":                        "d37378e5218d0c3d1585ac3ad3944d9683b540552c3679c1ed73e924223e088b",
	"mis/empty/MIS/seed=3/mu=0.25":                       "16101c72774abb8c29987f760ca85897caae942a01300787b8f95574f09e8fea",
	"mis/empty/MISFast/seed=1/mu=0.05":                   "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=1/mu=0.1":                    "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=1/mu=0.25":                   "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=2/mu=0.05":                   "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=2/mu=0.1":                    "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=2/mu=0.25":                   "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=3/mu=0.05":                   "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=3/mu=0.1":                    "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/empty/MISFast/seed=3/mu=0.25":                   "9f8b8f47f78cfd428ea490f9cd449f8e79740ce0c015292ec58fe7bc9a642a39",
	"mis/one/MIS/seed=1/mu=0.05":                         "260a6048a3d959cd2b5d725a24695b03ba1d71c53301251c8f5d0636dea544bd",
	"mis/one/MIS/seed=1/mu=0.1":                          "53ae7ea907d3fb8ccc6f86534418d3d5f36dc963c3df240a943d45a059d0b714",
	"mis/one/MIS/seed=1/mu=0.25":                         "98282a6fea98d6dbf4114c20375eca692a6fc02860286022bfab99e286b72504",
	"mis/one/MIS/seed=2/mu=0.05":                         "260a6048a3d959cd2b5d725a24695b03ba1d71c53301251c8f5d0636dea544bd",
	"mis/one/MIS/seed=2/mu=0.1":                          "53ae7ea907d3fb8ccc6f86534418d3d5f36dc963c3df240a943d45a059d0b714",
	"mis/one/MIS/seed=2/mu=0.25":                         "98282a6fea98d6dbf4114c20375eca692a6fc02860286022bfab99e286b72504",
	"mis/one/MIS/seed=3/mu=0.05":                         "260a6048a3d959cd2b5d725a24695b03ba1d71c53301251c8f5d0636dea544bd",
	"mis/one/MIS/seed=3/mu=0.1":                          "53ae7ea907d3fb8ccc6f86534418d3d5f36dc963c3df240a943d45a059d0b714",
	"mis/one/MIS/seed=3/mu=0.25":                         "98282a6fea98d6dbf4114c20375eca692a6fc02860286022bfab99e286b72504",
	"mis/one/MISFast/seed=1/mu=0.05":                     "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=1/mu=0.1":                      "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=1/mu=0.25":                     "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=2/mu=0.05":                     "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=2/mu=0.1":                      "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=2/mu=0.25":                     "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=3/mu=0.05":                     "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=3/mu=0.1":                      "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/one/MISFast/seed=3/mu=0.25":                     "a067c0e44192e9c4caeaf304af73f6fe9c00aea6888eacb4d549adcaeea0a7b8",
	"mis/path/MIS/seed=1/mu=0.05":                        "eb694dd444db9aa601e29ed5630982468d22f6db28047d2deedf7b3b180582b1",
	"mis/path/MIS/seed=1/mu=0.1":                         "db20ddd1f1abaee7d237a0a5c20db2c94e6e81db24d077b4d0c05c8d38c3a502",
	"mis/path/MIS/seed=1/mu=0.25":                        "0d2ec91b3d63bd5c58e9accf9bf4cdf43559327cdda875feea7195e3a56eb785",
	"mis/path/MIS/seed=2/mu=0.05":                        "f33ec49c05d14b36ba1caba0e17fd18401a6a508969a28e569467fe8beb0c67e",
	"mis/path/MIS/seed=2/mu=0.1":                         "db1b728d670fe48e66a387ff4310c8c26ab44ded7761dd53ea601f6028ef0c89",
	"mis/path/MIS/seed=2/mu=0.25":                        "56d56a1db66c183ca76e56a53b468860a702d7a121e923cb5bac744990fe82b8",
	"mis/path/MIS/seed=3/mu=0.05":                        "510f780c7c984eb496593ebcd162b6a72ea4eabcd69327817fef9e42fb671715",
	"mis/path/MIS/seed=3/mu=0.1":                         "2cd4f120145fdd854b34abe7d01e5eacca52a75e9a445a05a2bb82f4066c897d",
	"mis/path/MIS/seed=3/mu=0.25":                        "63c616f9f815d614ac5544a6216f3c25b2e863bf5a91de7343c6c49d1a2c31cc",
	"mis/path/MISFast/seed=1/mu=0.05":                    "c3cf383891f7ca4fb503d2e279ef18457774cfdf34fa52c363e0b9a80b6fb9a3",
	"mis/path/MISFast/seed=1/mu=0.1":                     "607f085aed92940e4041226dfca2c6e8ac9a843e5a3c2eded4c22d413ad445e6",
	"mis/path/MISFast/seed=1/mu=0.25":                    "607f085aed92940e4041226dfca2c6e8ac9a843e5a3c2eded4c22d413ad445e6",
	"mis/path/MISFast/seed=2/mu=0.05":                    "c3cf383891f7ca4fb503d2e279ef18457774cfdf34fa52c363e0b9a80b6fb9a3",
	"mis/path/MISFast/seed=2/mu=0.1":                     "607f085aed92940e4041226dfca2c6e8ac9a843e5a3c2eded4c22d413ad445e6",
	"mis/path/MISFast/seed=2/mu=0.25":                    "607f085aed92940e4041226dfca2c6e8ac9a843e5a3c2eded4c22d413ad445e6",
	"mis/path/MISFast/seed=3/mu=0.05":                    "c3cf383891f7ca4fb503d2e279ef18457774cfdf34fa52c363e0b9a80b6fb9a3",
	"mis/path/MISFast/seed=3/mu=0.1":                     "607f085aed92940e4041226dfca2c6e8ac9a843e5a3c2eded4c22d413ad445e6",
	"mis/path/MISFast/seed=3/mu=0.25":                    "607f085aed92940e4041226dfca2c6e8ac9a843e5a3c2eded4c22d413ad445e6",
	"mis/star/MIS/seed=1/mu=0.05":                        "0835fe3a9190c84d0275a8e3c0e309ca6be4048439b86692977ec658fea04519",
	"mis/star/MIS/seed=1/mu=0.1":                         "37a03da131fb229460afb6489cd05aa13c58f0d9f00534197e484edb5abb9a4b",
	"mis/star/MIS/seed=1/mu=0.25":                        "06470af93a04e6e246f781c698c46f7b41b3e5578782fafd4ec1b770efb82a52",
	"mis/star/MIS/seed=2/mu=0.05":                        "0835fe3a9190c84d0275a8e3c0e309ca6be4048439b86692977ec658fea04519",
	"mis/star/MIS/seed=2/mu=0.1":                         "37a03da131fb229460afb6489cd05aa13c58f0d9f00534197e484edb5abb9a4b",
	"mis/star/MIS/seed=2/mu=0.25":                        "06470af93a04e6e246f781c698c46f7b41b3e5578782fafd4ec1b770efb82a52",
	"mis/star/MIS/seed=3/mu=0.05":                        "0835fe3a9190c84d0275a8e3c0e309ca6be4048439b86692977ec658fea04519",
	"mis/star/MIS/seed=3/mu=0.1":                         "37a03da131fb229460afb6489cd05aa13c58f0d9f00534197e484edb5abb9a4b",
	"mis/star/MIS/seed=3/mu=0.25":                        "06470af93a04e6e246f781c698c46f7b41b3e5578782fafd4ec1b770efb82a52",
	"mis/star/MISFast/seed=1/mu=0.05":                    "b6ddfbb3faf4bd51257df5cbd83c12f86dae276eeb1c79da412dec7bc560f28f",
	"mis/star/MISFast/seed=1/mu=0.1":                     "ea93a7807bfb049e1df0204201ba2bc18d74e37b0017beca98895bdd5185d442",
	"mis/star/MISFast/seed=1/mu=0.25":                    "ea93a7807bfb049e1df0204201ba2bc18d74e37b0017beca98895bdd5185d442",
	"mis/star/MISFast/seed=2/mu=0.05":                    "b6ddfbb3faf4bd51257df5cbd83c12f86dae276eeb1c79da412dec7bc560f28f",
	"mis/star/MISFast/seed=2/mu=0.1":                     "ea93a7807bfb049e1df0204201ba2bc18d74e37b0017beca98895bdd5185d442",
	"mis/star/MISFast/seed=2/mu=0.25":                    "ea93a7807bfb049e1df0204201ba2bc18d74e37b0017beca98895bdd5185d442",
	"mis/star/MISFast/seed=3/mu=0.05":                    "b6ddfbb3faf4bd51257df5cbd83c12f86dae276eeb1c79da412dec7bc560f28f",
	"mis/star/MISFast/seed=3/mu=0.1":                     "ea93a7807bfb049e1df0204201ba2bc18d74e37b0017beca98895bdd5185d442",
	"mis/star/MISFast/seed=3/mu=0.25":                    "ea93a7807bfb049e1df0204201ba2bc18d74e37b0017beca98895bdd5185d442",
	"plane/bmatching/seed=1/mu=0.05":                     "709d02a7c088ed132834a72d282eeb3c07d465b725781e62f8f45aabc9ca778a",
	"plane/bmatching/seed=1/mu=0.2":                      "62965e67fac793b6f473161efc5966656023e5a11ae68caa46d59bd6415259cc",
	"plane/bmatching/seed=2/mu=0.05":                     "3d92ff64ec64e82afbf10ad05da51a42bf79f34f0d42680525d6b1dac90ddfe4",
	"plane/bmatching/seed=2/mu=0.2":                      "e79c6eadd68a5d6bc77d0b8d2a96a1c569723dfa239ba5307dc813074df616ad",
	"plane/clique/seed=1/mu=0.05":                        "0f4b3e8279978ab7cdb7040b9f7f3ff0688227a2616b32a85a03a743d04b8721",
	"plane/clique/seed=1/mu=0.2":                         "fc9862ba5c0b1472476aaa5ab5904c647a795f5abc9c71ecd5a8a93c829c9e18",
	"plane/clique/seed=2/mu=0.05":                        "e5113784827efba3a1763f6b1643349764f864015c2402e49da85d62d31d5223",
	"plane/clique/seed=2/mu=0.2":                         "dbd66bc297a184d7e15a388b588375e18a8d2f3771e2d2247dfb274dbd7b3983",
	"plane/ecolour/seed=1/mu=0.05":                       "0e0d790c47499ed7ef1794d4a9a0515c61bbc465b2703eccd39298a044b5a874",
	"plane/ecolour/seed=1/mu=0.2":                        "c5f31643b14ebc30edaa1c683888799287bf435f794ca567657879993cf37d35",
	"plane/ecolour/seed=2/mu=0.05":                       "3b823842075e84fde3411b966c20e17d650c5711a0fe531f75d529f1fd159dfb",
	"plane/ecolour/seed=2/mu=0.2":                        "514ef475f6d3e5f43fcc6debae5c7e2a5d60bfa6802bd3982699f347752b7a33",
	"plane/filtering/seed=1/mu=0.05":                     "8f4a01c9a9a02efd84eccd8093aad1475f7b40748acb7e6cc6d3ce5952270a23",
	"plane/filtering/seed=1/mu=0.2":                      "7d9b128abeb96e0237bddc6370650eaeadbcddaf65e0d64748ff4392d8e5210c",
	"plane/filtering/seed=2/mu=0.05":                     "b1dbdc9fcef9606807b181b7e766a2d6924c8bd1f40eee80e455089871778281",
	"plane/filtering/seed=2/mu=0.2":                      "adbeed4f2772a11d4bef7696ac564e4d142cc92e59bd306303287c9d42846718",
	"plane/luby/seed=1/mu=0.05":                          "002057b09d70e2c5489d2512a81237891d80ea6d4515c1325ace70bdc602be6a",
	"plane/luby/seed=1/mu=0.2":                           "5a6441697dfb0e7b4a63019672963152046a2399308a407c180040775355b8fd",
	"plane/luby/seed=2/mu=0.05":                          "3e81c5b6ee214b22094df767d15ff4801d18360b68a6cda1afdfb48a3540a2fc",
	"plane/luby/seed=2/mu=0.2":                           "d73ddc2a98e48ca60caaea2ea7b2ef0e178e3116e3088704034566f95835e0e8",
	"plane/matching/seed=1/mu=0.05":                      "d0f16c9a920cc827ab623f540c2469edd79e485f96c3436fc5d73a92ed2151d7",
	"plane/matching/seed=1/mu=0.2":                       "5caf7c75bc2874a2e4413e970210a8f89866c8f6575f171c1722092a9a947486",
	"plane/matching/seed=2/mu=0.05":                      "2cd38b55f8f36e5a73b598a591656265fc01e6be4ae569e69deae70796ac856e",
	"plane/matching/seed=2/mu=0.2":                       "5554207a6ce1c75dd7d250baccf818a7bfcc905051123002ff5a3b435f977411",
	"plane/mis-simple/seed=1/mu=0.05":                    "acc8aee24b67fdb849d04bda37b92c10c88343f0ba3ad3f684bfceea773aa675",
	"plane/mis-simple/seed=1/mu=0.2":                     "baf0da306be3355f424fb3dc51e6caef0d2ede02787d5ef7f41d382e73417a87",
	"plane/mis-simple/seed=2/mu=0.05":                    "dc3466fbd78d7343c532bc413aa4bb22e09573edc3e4b616525c5d0295ca05f6",
	"plane/mis-simple/seed=2/mu=0.2":                     "45e9191990ddaec79dbb921d98027b607ce6e1b0aee7b4bef34095fd7ca3bd4d",
	"plane/mis/seed=1/mu=0.05":                           "dac8655a5b076e323bbebeef871c52eb24ffb353a1dbe52201f016f6d8fb81dd",
	"plane/mis/seed=1/mu=0.2":                            "b78689d424e2eb1505c9391457a4d3964eadda18beac22528dc894e6879e6b5c",
	"plane/mis/seed=2/mu=0.05":                           "8acbffae7e8c0bdd596b9b50f94c23a71cb3d7d02131a34203030575e4bab229",
	"plane/mis/seed=2/mu=0.2":                            "886daf1509fe21c6912c9cc7ca435f1bc0dffde60dfca470b8fdb6ac443c5ca4",
	"plane/setcover-f/seed=1/mu=0.05":                    "0ddd11ba925cc3ca01dad2358963e74ee82d94527265f42eb90c88423512b1a4",
	"plane/setcover-f/seed=1/mu=0.2":                     "b90090acb16ff1d417a3129daa296428d03815782423fef286c1c4081518594c",
	"plane/setcover-f/seed=2/mu=0.05":                    "f832c667aeb83c9d0d4da983de4eb768518bb3dbc3b6d5a453d0365147c60b76",
	"plane/setcover-f/seed=2/mu=0.2":                     "f3837231580baae05aecbf5f62b6d66075bcd438cd21912108120c4534b50cb5",
	"plane/setcover-greedy/seed=1/mu=0.05":               "4f58cc3a9ab7ec79d43dcc04b8133c4f027167f718b29d7e470580862bd480fe",
	"plane/setcover-greedy/seed=1/mu=0.2":                "fe6ef39caa89a81768cf36c748288854f4fdee0d9f305ba765c885b6f6a0856c",
	"plane/setcover-greedy/seed=2/mu=0.05":               "2ef5fe1f719d171479ef08990a13feef8c9c998704c11d12a01841fa06e8226a",
	"plane/setcover-greedy/seed=2/mu=0.2":                "79b4c892650a17947a7471739969dc0cc2e8a800f86ff552e915d032346de61d",
	"plane/vcolour/seed=1/mu=0.05":                       "83d2fadafc5f55936d14621cda391b786cffb959ddc08bf9d79ee3fd813cf780",
	"plane/vcolour/seed=1/mu=0.2":                        "9ed9df7752709fdf2afee72be97a5c6330de7e466407eb9ff7d3ab0799f2050f",
	"plane/vcolour/seed=2/mu=0.05":                       "d6aaa324db2fc00f4f2e60963d923a3ab5315d7dbf9984c1747bb252b421264d",
	"plane/vcolour/seed=2/mu=0.2":                        "fd4550c61f02037823f7f1634c9eff8982fdfc70c3b7afcb4c79159132b32102",
	"plane/vertexcover/seed=1/mu=0.05":                   "409739949b428bd2775e0f31478c1056ee08dc7aeb25030f5fefe27697c7b4a3",
	"plane/vertexcover/seed=1/mu=0.2":                    "7502374e1f2f3293cb72a7cb017e5427aab64fb9451dd6ca240881621834f823",
	"plane/vertexcover/seed=2/mu=0.05":                   "fbf56290c364aa74c84b43b9796d861604447dda7225ffdc0b76e6144221f163",
	"plane/vertexcover/seed=2/mu=0.2":                    "5b258c073bb7ba29dd72cba2e6b31c55144a249afd0bed253eaf602ebcea489d",
	"rlr/appendixC/eta=n/seed=1":                         "615f33123c48ab708457a599a84eedde9a644958915f2b03592e05c77d0bc86b",
	"rlr/appendixC/eta=n/seed=2":                         "c66482ec4123f11bb79e31126a06c32c95dcf96739bd01546c2cd7ee3ca969be",
	"rlr/appendixC/eta=n/seed=3":                         "b3a4d08b6cbcc7d1fc1f35e51b1efd2bfdd39aa1e7c2e4c082d612a2d3ecda3d",
	"rlr/full/default-eta/seed=1":                        "0cccd23508b7b564b77e0c4f4d83f74a3fdfe56cab415b2b4153e76fd4618ac5",
	"rlr/full/default-eta/seed=2":                        "0cccd23508b7b564b77e0c4f4d83f74a3fdfe56cab415b2b4153e76fd4618ac5",
	"rlr/full/default-eta/seed=3":                        "0cccd23508b7b564b77e0c4f4d83f74a3fdfe56cab415b2b4153e76fd4618ac5",
	"rlr/full/dense-graph/seed=1":                        "304f5caad4e91ecc7f6c44f54d5e062946b060c1ce2a846ce2a84d2cf6997c2d",
	"rlr/full/dense-graph/seed=2":                        "bfe2001c6b713d275241b77554c036bb122e76e8c1e3fcf0b64e431d96204d4b",
	"rlr/full/dense-graph/seed=3":                        "d2600529f7bdd70d6bf39fbc96552148db6712e1319c5139b5a44f1bc7f3bad6",
	"rlr/nonpositive-weights/seed=1":                     "99b757fc1c3fd9f1ea6921d9360b5df9de2343f13d6845df0bdf35f4596f0c28",
	"rlr/nonpositive-weights/seed=2":                     "d50fedfa29504291fec3c91d0707080f27471d5a4ce2d4f39f69700561f87b8a",
	"rlr/nonpositive-weights/seed=3":                     "9342770bd33d12b76b458dbacae2eaf25f0cc889534c8547cca8120e7c90b81c",
	"rlr/path/seed=1":                                    "e3ca28f47c443f6ff5a76a48aec06693a58b029eee9a850d8070c7b30c193c8a",
	"rlr/path/seed=2":                                    "4b4cd94d85a21c7087451ca034ceacd13818d5f0ad1e4a97ffe2eeb959065c1b",
	"rlr/path/seed=3":                                    "b05fbf3dd77b33cc19aa16b688cf8763e24f74a290a36d490c1615e54dd1872b",
	"rlr/sampled/orientation/seed=1":                     "938a780575e02e41292f5cbc927071a2d34a723ec86402096a60f1879964e9ec",
	"rlr/sampled/orientation/seed=2":                     "47326d5770cdb1b95599381905df4f424722f0b18138a66be21780531b9c4d57",
	"rlr/sampled/orientation/seed=3":                     "69565bc8ce24a4d51679eb46045a4ddec215efe6fd4c2e0930d5ae1df7652a79",
	"rlr/sampled/ties/seed=1":                            "eae4ede7d708c761d5be4e58a3bf713a3a9d0bdf0ef8c0a6934cdd6dc1b57b93",
	"rlr/sampled/ties/seed=2":                            "4215fae8f14d84b0c5f857f3ac22038947449a6c0cd878835c6c5c9e2774b7cb",
	"rlr/sampled/ties/seed=3":                            "e62dc11a5aedde8a9e3ed3454896a513f343fa53d61256365a08b1a61629c163",
	"rlr/sampled/tiny-eta/seed=1":                        "70fd6ad54960ea38c3ac82c5c89f5f61b79aeec371bb6542e6da51c5f9fe8307",
	"rlr/sampled/tiny-eta/seed=2":                        "179934c388f5709efa85f382e04c8fd11d57ba152b24e8fc746dac88123263d0",
	"rlr/sampled/tiny-eta/seed=3":                        "72fb6189b2872429525e17e21bce7115a7a29a98c2950e5b772dffb7f5d20d65",
	"rlr/star/seed=1":                                    "9705718726c275bc1251b9a5dcd58d4a373b67efb779b2d4f6858dec21c14dba",
	"rlr/star/seed=2":                                    "59f0eba9f3dea39e784ad0b4de6ddfd3c1a375a9072c93de913a1eee00e25810",
	"rlr/star/seed=3":                                    "6df280ad85edbf3cdb0af47a573dc00fdc332f4d14cd6b1211cc79eac8fc4b12",
	"tie/w=1..1/n=2000/mu=0.2/eta=0":                     "79bbb54fad0f2e65cb21ca618ec9fd5b1ddee912229299eaa78c4d923c2e4a33",
	"tie/w=1..1/n=2000/mu=0.2/eta=500":                   "c906c9dd165f07e1e0d69f60befb3adaa7570704f3e715fae5e79c4aaab4151b",
	"tie/w=1..1/n=2000/mu=0/eta=0":                       "059a736f862826c2717a04dff7fbc5f157961bc5d2e0b0d5c88cf5afc7761281",
	"tie/w=1..1/n=2000/mu=0/eta=500":                     "798cbb126c08507c095bdd809eaa22fe5fea525725eafac3d20d1c2f8c41abea",
	"tie/w=1..1/n=300/mu=0.2/eta=0":                      "3aa148dd0e6d1c7d1e0ae9a27e653928ba90ed3c347c0bba46b103edb26c3c1c",
	"tie/w=1..1/n=300/mu=0.2/eta=75":                     "25c07048028b958c0728e11da0e2877a7ace617fcfb35a8021056abe6cfc4ace",
	"tie/w=1..1/n=300/mu=0/eta=0":                        "ecf4d9e716783484a4e8db9c2d05248df0c6422579c4e9e8592b7e7dc9ff514c",
	"tie/w=1..1/n=300/mu=0/eta=75":                       "f67f64872dbfe368244809328fee03f7d53129fa886427035c05a7992d7893e7",
	"tie/w=1..3/n=2000/mu=0.2/eta=0":                     "ca96b85f73ab88df7775d0244dac713e8dfa2f4f5c192701fdf37cfa2f6d523c",
	"tie/w=1..3/n=2000/mu=0.2/eta=500":                   "ae0ab34dad0558a630d23f3cc9e9c0e004b2d2ea6cac0179bfd6cb3286f45b26",
	"tie/w=1..3/n=2000/mu=0/eta=0":                       "5c5312aeafc25736cb9bbfe12f197bb4621ebead0d352931cf782e45a8fc375b",
	"tie/w=1..3/n=2000/mu=0/eta=500":                     "83d5c0a96bb1a66c37f04150e2c548f8f188a6639d36aa8d9ec01c58dcb595d2",
	"tie/w=1..3/n=300/mu=0.2/eta=0":                      "d84e09c64a8ea902f7dad4d1e2fd733cfeb728f0bffe0b236c16cca8fa84db0c",
	"tie/w=1..3/n=300/mu=0.2/eta=75":                     "47f49fee749d0b416b0e50917acac3c5e9d2c9d6ecbb8f5fc771dbc83f409f4e",
	"tie/w=1..3/n=300/mu=0/eta=0":                        "f1167b5ab21d790a8a6a5ebe0f82e528b3ea30e303fd883f23cfd8ef47c54271",
	"tie/w=1..3/n=300/mu=0/eta=75":                       "9443127599ae7b83e0fdf16d52aa553427f373176cd3ef87c8cdc3566dae9494",
}

// resultDigest hashes res's %+v text (struct fields in order, map keys sorted).
func resultDigest(res any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	return hex.EncodeToString(sum[:])
}

func TestPinnedResults(t *testing.T) {
	rows := pinnedRows(t)
	if len(rows) != len(pins) {
		t.Fatalf("%d rows for %d pins", len(rows), len(pins))
	}
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		pin, ok := pins[row.key]
		if !ok || seen[row.key] {
			t.Fatalf("row %s has no pin of its own", row.key)
		}
		seen[row.key] = true
		t.Run(row.key, func(t *testing.T) {
			t.Parallel()
			try := func(how string, in any, workers int) {
				p := row.p
				p.Workers = workers
				res, err := row.run(in, p)
				if err == nil && row.check != nil {
					err = row.check(res)
				}
				if err != nil {
					t.Fatalf("%sworkers=%d: %v", how, workers, err)
				}
				if got := resultDigest(res); got != pin {
					t.Errorf("%sworkers=%d: digest %s, pinned %s", how, workers, got, pin)
				}
			}
			for _, w := range row.workers {
				try("", row.inst(), w)
			}
			if row.mapped != nil {
				try("mapped ", row.mapped(), 4)
			}
		})
	}
}

// memo returns build's result, built on first use and shared after.
func memo[T any](build func() T) func() any {
	get := sync.OnceValue(build)
	return func() any { return get() }
}

// shared forces what Graph.Build and Instance.Dual build on first use, so
// the rows sharing in only read it: the shape service.BuildInstance gives
// the daemon's instances, without the weight slab no driver reads.
func shared(in Input) Input {
	if g := in.Graph; g != nil {
		g.Build()
	}
	if c := in.Cover; c != nil {
		c.Dual()
	}
	return in
}

func sharedGraph(g *graph.Graph) *graph.Graph { return shared(Input{Graph: g}).Graph }

// onGraph adapts a driver on a graph to a row's run.
func onGraph[R any](f func(*graph.Graph, Params) (R, error)) func(any, Params) (any, error) {
	return func(in any, p Params) (any, error) { return f(in.(*graph.Graph), p) }
}

// pinnedRows builds the table family by family. Each family's key prefix
// says what it pins and before which rewrite its pins were taken.
func pinnedRows(t *testing.T) []pinnedRow {
	var rows []pinnedRow
	sequential, both := []int{0}, []int{1, 4}
	// graphRows adds family/driver/seed=s/mu=µ rows for each driver and µ.
	graphRows := func(family string, seed uint64, g func() any, workers []int, mus []float64,
		drivers map[string]func(any, Params) (any, error)) {
		for _, mu := range mus {
			for name, run := range drivers {
				rows = append(rows, pinnedRow{key: fmt.Sprintf("%s/%s/seed=%d/mu=%v", family, name, seed, mu),
					inst: g, run: run, p: Params{Mu: mu, Seed: seed}, workers: workers})
			}
		}
	}

	// equiv: every driver and option variant on two instances, pinned while
	// a dense mode that ran every machine every round agreed on every model
	// quantity: a missed Arm or a write outside its machine moves one.
	for name, build := range equivInstances {
		inst := memo(build)
		for _, rn := range equivRuns {
			rows = append(rows, pinnedRow{key: "equiv/" + name + "/" + rn.name, inst: inst,
				run: func(in any, p Params) (any, error) { return rn.f(in.(equivInstance), p) },
				p:   Params{Mu: 0.25, Seed: 99}, workers: both})
		}
	}

	// plane: every registry algorithm's RunResult on instances built as the
	// service builds its specs, pinned before the message plane read runs in
	// bulk. The graph rows at seed 1 also run on their graph mapped.
	plane := map[InputKind][]func() any{} // by kind, then seed-1
	for _, kind := range []InputKind{InputGraph, InputVertexCover, InputSetCover} {
		for _, seed := range []uint64{1, 2} {
			plane[kind] = append(plane[kind], memo(func() Input { return shared(planeInput(kind, seed)) }))
		}
	}
	greedy := memo(func() Input { return shared(Input{Cover: setcover.RandomSized(2000, 200, 12, 8, rng.New(3))}) })
	mapped := map[InputKind]func() any{}
	for _, kind := range []InputKind{InputGraph, InputVertexCover} {
		heap := plane[kind][0]().(Input)
		path := filepath.Join(t.TempDir(), "g.mrg")
		if err := graph.WriteContainerFile(path, heap.Graph); err != nil {
			t.Fatal(err)
		}
		g, err := graph.OpenMapped(path)
		if err != nil || !g.Mapped() {
			t.Fatalf("%s did not open as a mapped graph: %v", path, err)
		}
		t.Cleanup(func() { g.Close() })
		in := Input{Graph: g}
		if heap.Cover != nil {
			in.Cover = setcover.FromVertexCover(g, heap.Cover.Weights)
		}
		mapped[kind] = memo(func() Input { return shared(in) })
	}
	for _, a := range Algorithms() {
		for _, seed := range []uint64{1, 2} {
			inst := plane[a.Input][seed-1]
			if a.Name == "setcover-greedy" {
				inst = greedy
			}
			for _, mu := range []float64{0.05, 0.2} {
				row := pinnedRow{key: fmt.Sprintf("plane/%s/seed=%d/mu=%v", a.Name, seed, mu), inst: inst,
					run: func(in any, p Params) (any, error) { return a.Run(in.(Input), p, nil) },
					p:   Params{Mu: mu, Seed: seed}, workers: sequential}
				if seed == 1 {
					row.mapped = mapped[a.Input]
				}
				rows = append(rows, row)
			}
		}
	}

	// filtering: both Lattanzi et al. baselines on the plane graph (5 943
	// edges), where η (800 and 1 118 words) is below the edge count and the
	// heaviest weight class (about 2 100 edges), so every run samples with
	// p < 1. Pinned before the two shared one filtering loop.
	for _, seed := range []uint64{1, 2} {
		in := plane[InputGraph][seed-1]
		graphRows("filtering", seed, func() any { return in().(Input).Graph }, sequential, []float64{0, 0.05},
			map[string]func(any, Params) (any, error){
				"FilteringMatching":         onGraph(FilteringMatching),
				"FilteringWeightedMatching": onGraph(FilteringWeightedMatching),
			})
	}

	// colouring: both Algorithm 5 variants where κ is 5 (µ = 0.05) and 4
	// (µ = 0.1), so four workers colour groups concurrently. Pinned before
	// the two shared one group–route–colour–emit driver.
	for _, seed := range []uint64{1, 2} {
		g := memo(func() *graph.Graph {
			r := rng.New(seed)
			g := graph.Density(1500, 0.5, r)
			g.AssignUniformWeights(r, 1, 100)
			return sharedGraph(g)
		})
		graphRows("colouring", seed, g, both, []float64{0.05, 0.1}, map[string]func(any, Params) (any, error){
			"VertexColouring": onGraph(VertexColouring),
			"EdgeColouring":   onGraph(EdgeColouring),
		})
	}

	// hg: HGSetCover on the serve workload's instance and on two whose runs
	// take Claim 4.1's overflow branch (a group above 4·m^{µ/2} sets selects
	// nothing). Pinned before the bookkeeping moved to the dual.
	cover := func(build func() *setcover.Instance) func() any {
		return memo(func() Input { return shared(Input{Cover: build()}) })
	}
	hg := func(key string, inst func() any, p Params, opt HGCoverOptions) pinnedRow {
		return pinnedRow{key: "hg/" + key, inst: inst, p: p, workers: sequential,
			run: func(in any, p Params) (any, error) { return HGSetCover(in.(Input).Cover, p, opt) }}
	}
	serve := cover(serveCoverInstance)
	rows = append(rows,
		hg("serve/seed=1000000", serve, Params{Mu: 0.2, Seed: 1000000}, HGCoverOptions{Eps: 0.2}),
		hg("serve/seed=1000001", serve, Params{Mu: 0.2, Seed: 1000001}, HGCoverOptions{Eps: 0.2}),
		hg("serve/seed=1000002", serve, Params{Mu: 0.2, Seed: 1000002}, HGCoverOptions{Eps: 0.2}),
		hg("serve/preprocess", serve, Params{Mu: 0.2, Seed: 1000000}, HGCoverOptions{Eps: 0.2, Preprocess: true}),
		// At µ = 0.05 the serve instance overflows a group in nearly every
		// iteration (4·m^{µ/2} ≈ 4.9 sets against thousands of groups) up to
		// the 10 000-iteration limit, so this row runs a fifth of it: 20
		// iterations, 5 of them overflowing.
		hg("mu=0.05", cover(func() *setcover.Instance { return setcover.RandomSized(8000, 800, 12, 8, rng.New(1)) }),
			Params{Mu: 0.05, Seed: 1}, HGCoverOptions{Eps: 0.2}),
		// Seed 45 is the first of 1–200 on this shape whose run overflows a
		// group (once, in one of its 8 iterations).
		hg("overflow", cover(func() *setcover.Instance { return setcover.RandomSized(600, 50, 8, 5, rng.New(45)) }),
			Params{Mu: 0.1, Seed: 45}, HGCoverOptions{}),
	)

	// tie: RLRMatching at seeds 1–3 (one pin for the three) where weights
	// tie everywhere, so the central machine breaks every argmax by arrival:
	// machine order, then edge id. That differs from id order only with at
	// least three machines. Every row but n = 300, µ = 0.2 at the default η
	// samples before its full iteration. Pinned before the CSR tie clause.
	for _, weights := range []int{1, 3} {
		for _, n := range []int{300, 2000} {
			g := sync.OnceValue(func() *graph.Graph {
				g := graph.Density(n, 0.4, rng.New(uint64(41+n)))
				wr := rng.New(uint64(43 + weights))
				for id := range g.Edges {
					g.Edges[id].W = float64(1 + wr.Intn(weights))
				}
				return sharedGraph(g)
			})
			for _, mu := range []float64{0, 0.2} {
				for _, etaWords := range []int{0, n / 4} {
					e := etaWords
					if e == 0 {
						e = eta(n, mu, 8)
					}
					rows = append(rows, pinnedRow{
						key:  fmt.Sprintf("tie/w=1..%d/n=%d/mu=%v/eta=%d", weights, n, mu, etaWords),
						inst: func() any { return g() }, p: Params{Mu: mu}, workers: sequential,
						run: func(in any, p Params) (any, error) {
							var runs []MatchingResult
							for p.Seed = 1; p.Seed <= 3; p.Seed++ {
								res, err := RLRMatching(in.(*graph.Graph), p, MatchingOptions{Eta: etaWords})
								if err != nil {
									return nil, fmt.Errorf("seed=%d: %w", p.Seed, err)
								}
								runs = append(runs, *res)
							}
							return runs, nil
						},
						check: func(res any) error {
							if M := dataMachines(4*g().M(), 4*e); M < 3 {
								return fmt.Errorf("%d machines, the row needs >= 3", M)
							}
							for i, r := range res.([]MatchingResult) {
								if etaWords > 0 && sampledIterations(int64(g().M()), r.History, e) == 0 {
									return fmt.Errorf("seed=%d: no sampled iteration", i+1)
								}
							}
							return nil
						},
					})
				}
			}
		}
	}

	// mis: Algorithms 2 and 6 on every misOracleGraphs instance at three µ
	// and seeds 1–3. Pinned from the drivers' bodies before they lost their
	// maps and per-candidate slices (batchDominated and blocked as maps, a
	// fresh alive-neighbour slice per sampled vertex).
	for name, build := range misOracleGraphs {
		g := memo(func() *graph.Graph { return sharedGraph(build()) })
		for seed := uint64(1); seed <= 3; seed++ {
			graphRows("mis/"+name, seed, g, both, []float64{0.05, 0.1, 0.25}, map[string]func(any, Params) (any, error){
				"MIS": onGraph(MIS), "MISFast": onGraph(MISFast)})
		}
	}

	// rlr: RLRMatching on every rlrOracleCases shape at seeds 1–3, each run
	// held to the sampled iterations its shape is there for. Pinned from the
	// driver's body before its map-free rewrite (per-machine plans, a
	// per-vertex map with sorted keys, a changed map, a whole-m rescan after
	// the delivery round).
	for _, tc := range rlrOracleCases {
		g := memo(func() *graph.Graph { return sharedGraph(tc.g()) })
		for seed := uint64(1); seed <= 3; seed++ {
			rows = append(rows, pinnedRow{key: fmt.Sprintf("rlr/%s/seed=%d", tc.name, seed), inst: g,
				run: onGraph(func(g *graph.Graph, p Params) (*MatchingResult, error) {
					return RLRMatching(g, p, MatchingOptions{Eta: tc.eta})
				}),
				p: Params{Mu: tc.mu, Seed: seed}, workers: both,
				check: func(res any) error {
					positive := int64(0) // the alive edges before the first iteration
					for _, e := range g().(*graph.Graph).Edges {
						if e.W > 0 {
							positive++
						}
					}
					if k := sampledIterations(positive, res.(*MatchingResult).History, tc.eta); k < tc.minSampled {
						return fmt.Errorf("%d sampled iterations, the row needs >= %d", k, tc.minSampled)
					}
					return nil
				},
			})
		}
	}

	// clique: MaximalClique on the clique tests' graphs at both µ. The
	// medium rows must take sampled batches, not only the final gather.
	clique := func(name string, g *graph.Graph, seed uint64, check func(res any) error) {
		inst := memo(func() *graph.Graph { return sharedGraph(g) })
		for _, mu := range cliqueMus {
			rows = append(rows, pinnedRow{key: fmt.Sprintf("clique/%s/%v", name, mu), inst: inst,
				run: onGraph(MaximalClique), p: Params{Mu: mu, Seed: seed}, workers: sequential, check: check})
		}
	}
	for name, g := range cliqueGraphs() {
		clique(name, g, 4, nil)
	}
	clique("planted", plantedCliqueGraph(), 8, nil)
	clique("medium", mediumCliqueGraph(), 2, func(res any) error {
		if it := res.(*CliqueResult).Iterations; it < 2 {
			return fmt.Errorf("%d iterations, want sampled batches", it)
		}
		return nil
	})
	return rows
}

// sampledIterations counts the iterations of a run that drew randomness:
// iteration i is sampled when the alive count before it was at least 4η.
func sampledIterations(before int64, history []int64, eta int) int {
	k := 0
	for _, after := range history {
		if before >= 4*int64(eta) {
			k++
		}
		before = after
	}
	return k
}

// misOracleGraphs are the mis rows' instances: dense random graphs at two
// densities plus the degenerate shapes.
var misOracleGraphs = map[string]func() *graph.Graph{
	"density0.3": func() *graph.Graph { return graph.Density(2000, 0.3, rng.New(60)) },
	"density0.5": func() *graph.Graph { return graph.Density(2000, 0.5, rng.New(61)) },
	"star":       func() *graph.Graph { return graph.Star(40) },
	"path":       func() *graph.Graph { return graph.Path(33) },
	"empty":      func() *graph.Graph { return graph.New(12) },
	"one":        func() *graph.Graph { return graph.New(1) },
}

// rlrOracleCases are the rlr rows' shapes: µ, η (0 for the default) and the
// sampled iterations a run must reach for its shape to be worth keeping
// (none at the default η, so the check reads η only where it is set).
var rlrOracleCases = []struct {
	name       string
	g          func() *graph.Graph
	mu         float64
	eta        int
	minSampled int
}{
	{"full/default-eta", func() *graph.Graph { return weightedDensity(300, 0.3, 11, 12) }, 0.2, 0, 0},
	{"full/dense-graph", func() *graph.Graph { return weightedDensity(120, 0.8, 13, 14) }, 0.3, 0, 0},
	{"appendixC/eta=n", func() *graph.Graph { return weightedDensity(400, 0.5, 15, 16) }, 0, 400, 1},
	{"sampled/tiny-eta", func() *graph.Graph { return weightedDensity(1000, 0.5, 17, 18) }, 0.05, 32, 10},
	// Equal weights everywhere: every argmax is a tie, so the first-max rule
	// and the arrival order decide the whole run.
	{"sampled/ties", func() *graph.Graph { return graph.Density(150, 0.4, rng.New(23)) }, 0.1, 40, 2},
	// Even edges stored as (smaller, larger), odd ones as (larger, smaller):
	// a central machine that read an edge's side from its endpoints' order
	// instead of from U filters the wrong side of half of them. The mix is
	// set here, not left to the generator's own orientation.
	{"sampled/orientation", func() *graph.Graph {
		g := weightedDensity(300, 0.4, 24, 25)
		for id := range g.Edges {
			e := &g.Edges[id]
			if (e.U > e.V) != (id%2 == 1) {
				e.U, e.V = e.V, e.U
			}
		}
		return g
	}, 0.1, 40, 2},
	// Every fourth edge weightless or negative: never alive, never sampled.
	{"nonpositive-weights", func() *graph.Graph {
		g := weightedDensity(200, 0.4, 21, 22)
		for id := range g.Edges {
			if id%4 == 0 {
				g.Edges[id].W = float64(-(id % 8)) // 0 and -4
			}
		}
		return g
	}, 0.1, 60, 1},
	{"star", func() *graph.Graph { return graph.Star(300) }, 0.1, 20, 1},
	{"path", func() *graph.Graph {
		g := graph.Path(500)
		g.AssignUniformWeights(rng.New(19), 1, 100)
		return g
	}, 0.1, 30, 1},
}

// weightedDensity is Density(n, c) drawn from seed with weights in [1, 100)
// drawn from weightSeed.
func weightedDensity(n int, c float64, seed, weightSeed uint64) *graph.Graph {
	g := graph.Density(n, c, rng.New(seed))
	g.AssignUniformWeights(rng.New(weightSeed), 1, 100)
	return g
}

// equivInstance is one input of the equiv rows: a weighted graph, its
// vertex-cover set system, and a general set-cover instance.
type equivInstance struct {
	g      *graph.Graph
	vc, sc *setcover.Instance
}

// equivInstances are the dense random graph the suite has always used and a
// preferential-attachment graph, whose skewed degrees leave a few hub owners
// busy while the other machines go dormant.
var equivInstances = map[string]func() equivInstance{
	"density": func() equivInstance {
		r := rng.New(424242)
		return newEquivInstance(graph.Density(180, 0.35, r), r,
			func(r *rng.RNG) *setcover.Instance { return setcover.RandomSized(320, 64, 8, 5, r) })
	},
	"pa": func() equivInstance {
		r := rng.New(5150)
		return newEquivInstance(graph.PreferentialAttachment(300, 4, r), r,
			func(r *rng.RNG) *setcover.Instance { return setcover.RandomFrequency(400, 80, 3, 5, r) })
	},
}

func newEquivInstance(g *graph.Graph, r *rng.RNG, sc func(*rng.RNG) *setcover.Instance) equivInstance {
	g.AssignUniformWeights(r, 1, 10)
	w := make([]float64, g.N)
	for i := range w {
		w[i] = r.UniformWeight(1, 10)
	}
	vc := shared(Input{Graph: g, Cover: setcover.FromVertexCover(g, w)})
	return equivInstance{g: g, vc: vc.Cover, sc: shared(Input{Cover: sc(r)}).Cover}
}

// equivRuns lists every driver (and option variant) of the package as a
// function of an equiv instance and the parameters.
var equivRuns = []struct {
	name string
	f    func(in equivInstance, p Params) (any, error)
}{
	{"RLRMatching", func(in equivInstance, p Params) (any, error) { return RLRMatching(in.g, p, MatchingOptions{}) }},
	{"BMatching", func(in equivInstance, p Params) (any, error) { return BMatching(in.g, p, BMatchingOptions{Eps: 0.2}) }},
	{"RLRSetCover-VC", func(in equivInstance, p Params) (any, error) {
		return RLRSetCover(in.vc, p, CoverOptions{VertexCoverMode: true})
	}},
	{"RLRSetCover-general", func(in equivInstance, p Params) (any, error) { return RLRSetCover(in.vc, p, CoverOptions{}) }},
	{"HGSetCover", func(in equivInstance, p Params) (any, error) { return HGSetCover(in.sc, p, HGCoverOptions{Eps: 0.2}) }},
	{"HGSetCover-preprocess", func(in equivInstance, p Params) (any, error) {
		return HGSetCover(in.sc, p, HGCoverOptions{Eps: 0.2, Preprocess: true})
	}},
	{"MIS", func(in equivInstance, p Params) (any, error) { return MIS(in.g, p) }},
	{"MISFast", func(in equivInstance, p Params) (any, error) { return MISFast(in.g, p) }},
	{"LubyMIS", func(in equivInstance, p Params) (any, error) { return LubyMIS(in.g, p) }},
	{"MaximalClique", func(in equivInstance, p Params) (any, error) { return MaximalClique(in.g, p) }},
	{"VertexColouring", func(in equivInstance, p Params) (any, error) { return VertexColouring(in.g, p) }},
	{"EdgeColouring", func(in equivInstance, p Params) (any, error) { return EdgeColouring(in.g, p) }},
	{"FilteringMatching", func(in equivInstance, p Params) (any, error) { return FilteringMatching(in.g, p) }},
	{"FilteringWeighted", func(in equivInstance, p Params) (any, error) { return FilteringWeightedMatching(in.g, p) }},
}

// planeInput builds the instance a registry algorithm of the given kind
// runs on in the plane rows, the way the service builds its density,
// vertexcover, setcover-f and setcover-greedy specs: a Density graph with
// weights in [1, 100), vertex weights in [1, 10), and random set systems.
func planeInput(kind InputKind, seed uint64) Input {
	r := rng.New(seed)
	if kind == InputSetCover {
		return Input{Cover: setcover.RandomFrequency(400, 2400, 3, 10, r.Split())}
	}
	g := graph.Density(800, 0.3, r.Split())
	g.AssignUniformWeights(r.Split(), 1, 100)
	if kind == InputGraph {
		return Input{Graph: g}
	}
	wr := r.Split()
	w := make([]float64, g.N)
	for i := range w {
		w[i] = wr.UniformWeight(1, 10)
	}
	return Input{Graph: g, Cover: setcover.FromVertexCover(g, w)}
}
