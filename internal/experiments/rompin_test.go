package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"ccrp/internal/core"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/workload"
)

// corpusROMPins maps program/alignment/coder to the sha256 of the image
// and the total refill cycles of its lines (RefillEngine.LineCycles)
// under EPROM, burst EPROM and static-column DRAM. A Huffman image's hash
// is over its CROM file; a CodePack image's, which has no file format, is
// over its blocks followed by its Line Address Table. The constants were
// written before BuildROM coded every line through one list of
// core.LineCodecs.
var corpusROMPins = map[string]string{
	"eightq/byte/preselected":      "d915c848b615cebb06a7b30ab1624d899e3c2ad2a1889bc5bda08d7eecb78dc2 2080 1900 2000",
	"eightq/byte/own":              "d766488c7c7e5c932a4f71c77bf9e03b9bd962619249cf0d03b953337a9947fe 2054 1900 2000",
	"eightq/byte/both":             "cf28994dba989c736b4116ed75696738a58e61a7ab1ea0b448815b6187cd9329 2057 1900 2000",
	"eightq/byte/codepack":         "48dbe6d2a56a6374d55b168edfe842e2380df33d8e105e58c747458738bcd3d4 1959 1891 1991",
	"eightq/word/preselected":      "9154f30267ecb195d3346fa48c9f14895417e70c8cac5474de384d1a6293b50e 2080 1900 2000",
	"eightq/word/own":              "d1d531d6e556cfbe48ddb13c9b988bb31f2c092692e899c4477ef43d1f6443da 2054 1900 2000",
	"eightq/word/both":             "6670f29d258a3d1ab2eb603844515eec6208c7d8194543f965a0e72814f10f5a 2073 1900 2000",
	"eightq/word/codepack":         "60f1153c584fa2d62d0a9cdbe2ca42dd0fb804a29ef28a4dbac032f85660dd21 1959 1891 1991",
	"lloop01/byte/preselected":     "c05c2f6296f684439aa4f72e45462e087c43ec2d3960930b6217f08860ae2cd0 2266 2033 2140",
	"lloop01/byte/own":             "c22e295125f4dae6f0b4e3e7088b970eb20537583fb43132c1a7e80335c3f3a9 2245 2033 2140",
	"lloop01/byte/both":            "721fd4b645f79aeb77c5139b2c074fbd87512c59e90598f5313b5e7e06f37477 2246 2033 2140",
	"lloop01/byte/codepack":        "8e6fcf1cd90f6951720a127b67ef04d8c59dcdb4fdc584137a8eadaf0fe4e826 2106 2033 2140",
	"lloop01/word/preselected":     "ad39b91bbad41b342197789ba57ac8fbcf138ee28060d852a640613c9a607e90 2266 2033 2140",
	"lloop01/word/own":             "d930dbb283b1fe850d617c93283f166e5106e257fdac347090c51773f28efc77 2245 2033 2140",
	"lloop01/word/both":            "cf1597e5c90baf28b0dc239121408311bde46bcc8410f57288ccd6a6cf738767 2253 2033 2140",
	"lloop01/word/codepack":        "2675b314bcde9fa5a61c001ea8b051adcd6781000dad8e35244a35d563b99bc3 2101 2015 2122",
	"matrix25a/byte/preselected":   "436645bb4e3fba1a37f4c4eab58a6155d8ccd353332616fdc358ea09d376378e 23924 21470 22600",
	"matrix25a/byte/own":           "6f10d3302bfe76293975f7469a5fd8eead2719544bbc3ff08045dcce7f923bd1 23780 21470 22600",
	"matrix25a/byte/both":          "55467725b6d7e9b70aaee928ed01b1fb56c2fe27c002192aef9467d8ed519a08 23833 21470 22600",
	"matrix25a/byte/codepack":      "78a288393a23d52fc12f7a678ba5a6d94de0aefd955fb33bbbdebfe529a96882 22033 21452 22582",
	"matrix25a/word/preselected":   "3fcfcec0950343221b9596e878425a42cddca52b45dd8903e47872526d47a4f9 23923 21461 22591",
	"matrix25a/word/own":           "8cfe75c3ed7a1dc636fcaedaa047d0c291631a6da6a3e403d5722325e6974dba 23779 21461 22591",
	"matrix25a/word/both":          "4cd58073836ef8f86c793eec49fe1e5275c365f370012d364f3572b2b00acedc 23882 21470 22600",
	"matrix25a/word/codepack":      "f2ad289069f3d42d4221ddc035e0ed5a6c66416016dea9a61928ec0e1bae1e56 22033 21452 22582",
	"tex/byte/preselected":         "50860376204c488c8bd7a6d62869d297cf47e643712a9a491708e002a256d0a2 34095 30761 32380",
	"tex/byte/own":                 "f9a36bed054d80c58c9b74a35e771e4051d56b3a3ca938fc70eecd57f686870b 33928 30761 32380",
	"tex/byte/both":                "405dc8de9f5345844d19ed4d1d18ffe85c0284bc21e375855f3bd125904ebc9a 33959 30761 32380",
	"tex/byte/codepack":            "a99a3ae4e948c0f94a7086bfdc0ed3d53243bed48a573c39f6dcf1916e56c929 31495 30752 32371",
	"tex/word/preselected":         "8a1deefc8c815c0b1c84798aa82738ec11b3b9be86ef46233080ffcd8624f93c 34095 30761 32380",
	"tex/word/own":                 "4d7fa361e4f41dd5fc137ad3ff5d6b59435e6f3107be65c520499cc8504fa12d 33927 30752 32371",
	"tex/word/both":                "a703f2183ec2b02283f5dcb798e0a983afd77560b42623681c2dc1eaff9a8d60 34030 30761 32380",
	"tex/word/codepack":            "fc6f6a5f90ec72f60cd356428098ff2f54aeab62fc4c361335f5ed5b10d23bab 31494 30743 32362",
	"pswarp/byte/preselected":      "68c77df6c16635e06364b0f349f8d1107b56e686a89cb62396adb33e239b8646 40253 34542 36360",
	"pswarp/byte/own":              "e13477c8fad87a9f197f1247959cd7dc7366e19fe7d0aba99ee344d2e7832f4a 39157 34542 36360",
	"pswarp/byte/both":             "98384a1a6c0afa0ab360873e96627f824aed72e6a7f1ca458bde9dd5007bcd41 39079 34542 36360",
	"pswarp/byte/codepack":         "a62fcc79a972928d841e828ab833bca96e805ab62ec26b1d8563bc9f67a478ee 35235 34542 36360",
	"pswarp/word/preselected":      "4b10d320f3ff19919d4e7ddf9f755520422dc2c820422c953d2ae39a82b4ffb6 40228 34317 36135",
	"pswarp/word/own":              "a45269b8d2b19462534f94925c04436cadb87fea7a7bc8b556ca9aeaab3a47bb 39155 34524 36342",
	"pswarp/word/both":             "deb4d02069def222cf3be0fd46232efae0b1231269b8a00e60c8762320c5dc68 39559 34533 36351",
	"pswarp/word/codepack":         "2601cbb47c2af31d9db8d518d2c94f946a3c6ed2875b7c32be0d998b34b18987 35232 34533 36351",
	"yacc/byte/preselected":        "c97a082e5aa6cfaebe65dd7471e2921b7f41f439530a32d3ceb8436ceba9d065 31564 28405 29900",
	"yacc/byte/own":                "b19c0ce68f7f1d1737a2ed10c77ebcb812df2611986434f87ccb2a2734456f48 31394 28405 29900",
	"yacc/byte/both":               "a66ccdb44b66a2a6fcb2323dcdde070d571c8477e3ab3c1bf13b8b214f97ceaa 31432 28405 29900",
	"yacc/byte/codepack":           "17098594612b57c3594663e925161e6b983bf92b54852aa07f3371d3b765d9f3 29093 28405 29900",
	"yacc/word/preselected":        "00051fdf99b27e731e9b608fa768b3e8bbe86b2b224df415eec24766876f79df 31561 28378 29873",
	"yacc/word/own":                "8683662e8968334972966fefab462c2ee28adb975a92864b68cccb1ef709fafc 31393 28396 29891",
	"yacc/word/both":               "baa9c4f5e113397eda83d5b673b944ae5e595eeda62d9624edf330d54098ef66 31519 28396 29891",
	"yacc/word/codepack":           "60de96108b245cdf7ebd2c40aef986e527f67f647e84318d1f00c699175c7737 29090 28387 29882",
	"who/byte/preselected":         "573bc9f729a8c07903879e981062f76539061aed41f7fb06a676b7b572727bd2 42579 38247 40260",
	"who/byte/own":                 "b3b8dc542e0ab5a69c8101f48f4c9bfcdbe7321cb7989e4fddcfba0b6d4423bc 42327 38247 40260",
	"who/byte/both":                "be5ffb8f98143f3895bde0ca6d058a9d7e83435cb9a1e712da4af7dfa8ec3a5e 42400 38247 40260",
	"who/byte/codepack":            "99cef0a66d15a47eb9235880d9ef1dec320bed397bd1d4bcbd053de4751ed25b 39180 38238 40251",
	"who/word/preselected":         "7c3664c72ad870d9592938c00927cdb8ff6173ae996b164a7e5254c467ff9375 42577 38229 40242",
	"who/word/own":                 "d028df31066bb418c6e0fc69afb256f0165a5fb5b5a10b82d2942dda7bac53cf 42326 38238 40251",
	"who/word/both":                "0f18d4902ddc59d8b49c3c42f02f6a6fe33b9c9319e9d11c58498a1a3f35831e 42486 38247 40260",
	"who/word/codepack":            "0fee67d968c050a998493dbb113dec6e7f48fa0f37441000391b0e09972c84f8 39178 38220 40233",
	"xlisp/byte/preselected":       "cf4f8312d1ae4157f6930e457045604f519b092c7c5ee0aabec56d96d73e548b 42619 38380 40400",
	"xlisp/byte/own":               "ed7e849eae6e92b757e6c215baeb467301bfe9bc0fc7b8efeef9ee1880fde4a3 42401 38380 40400",
	"xlisp/byte/both":              "594072c0f72f0e84a3b872077bfcc214e3e6b9af758216c1cef79bf2472a6eae 42463 38380 40400",
	"xlisp/byte/codepack":          "1999452a239ee2327fe369aefd7743a0e1f4f676ea88e15942e002e40dd7c7a5 39290 38371 40391",
	"xlisp/word/preselected":       "e0147d11db16885c408b3c11fa7949f03df5bab09d1d185409de1979cdca8a2b 42617 38362 40382",
	"xlisp/word/own":               "1f9528a23e8659c6c7cc5e7c959acba31c92db4a14a3ca031a4410156f23450e 42400 38371 40391",
	"xlisp/word/both":              "e1a54921db8d2ec1de609992991c3b490cc73ade1641a1f2f6e98c407f0a9a92 42545 38371 40391",
	"xlisp/word/codepack":          "1305e75a1b90dd41bb14e38f4b1d9542f6e33ecf1ed3cc22035b3e25765a7295 39290 38371 40391",
	"espresso/byte/preselected":    "846a46c99b4df2fe7d5c2945ff446b5266d1042416cf864666a1eb9fe79bd699 112732 101441 106780",
	"espresso/byte/own":            "2f400c8fe9a41efcaa4be3c760ade75737fa3bdab6f58841079d7bbaf2bc0dca 112109 101441 106780",
	"espresso/byte/both":           "edca3e609621d36dbf0577b39b1f09efb5be66076e24bf7c0c8f50702cacf330 112300 101441 106780",
	"espresso/byte/codepack":       "87e6cdb1db2719ee1d7bdf592ba676baa22c651f8d2573ddd538ee3cf3b327e6 103745 101423 106762",
	"espresso/word/preselected":    "affe0e0b7ebf23855caf5b5fd62bab95678593222e3bf0383c8edee6c3a27c2d 112727 101396 106735",
	"espresso/word/own":            "535ca6c4115104a45b7a5c3432e31f20cbb2a9d755dffcacad278cca5ef22f2b 112106 101414 106753",
	"espresso/word/both":           "2b972ddfcc72e334f6faf2041181f330af895d1c30ab0df7ff4a48a7143aebbb 112538 101423 106762",
	"espresso/word/codepack":       "ead30d26ab6a9de84f23eebe04445b054d3998ef41b976c455ec957b3e4070ac 103745 101423 106762",
	"spim/byte/preselected":        "c1d487ed34aac5fb58cfb2c4881f79c36b1a0ad60ccdc46fb7db8e4322d97d48 96444 82650 87000",
	"spim/byte/own":                "74a7e74d773815a95d21545fc3ada0b89bfbf1dac067b1f4a192afc92aff528e 93857 82650 87000",
	"spim/byte/both":               "f34aff2311dc0e2352524c051325dd8bd026f7cec119b79c6c92020510d0fe23 93655 82650 87000",
	"spim/byte/codepack":           "281775674530471167ee9d38236d2572ef3660d8830fef3f4c27beac760e9a32 84319 82650 87000",
	"spim/word/preselected":        "5fe414131fe7ae59264accef9666884b8134aed5db77426986197bd1be7eec66 96398 82245 86595",
	"spim/word/own":                "46a6e254c8d4fecf0d0aa3473f0f1b24279235f469d0fa64829fd3f46ad13906 93856 82641 86991",
	"spim/word/both":               "ed82f75fafa4d9ebb4a91f551405383a379a59c2a20ce41630d1a0cb8486eeee 94820 82641 86991",
	"spim/word/codepack":           "f40708b44ee07b769313d43fa015de9e31132dc6866dd5fc5284bb3e85a5d086 84315 82623 86973",
	"nasa7/byte/preselected":       "5dec4fabc1ade1774184c0058e1e8e82d6cb7c56b7edf8a50cc7b02ace8f7b5e 60291 51699 54420",
	"nasa7/byte/own":               "46bf19471feaf10b17fc7e2f11b17105a4454f4df9c878c5d26b9530b51ded9b 58634 51699 54420",
	"nasa7/byte/both":              "7756ab4ad220034f54064f8966d9ff7ede19cd4e643bd0dc77b57aaa214e085b 58552 51699 54420",
	"nasa7/byte/codepack":          "e60773bacf7717d36751b69016312669ff29e7501f7c657eedf9031289a510fb 52998 51690 54411",
	"nasa7/word/preselected":       "880c941e11ee87614056eff694a9d4641ae512f154444749245125917751cd80 60246 51303 54024",
	"nasa7/word/own":               "8f96d9516b3105493d474848d6c27403bab3a6376e4debfa4cf95ff607470e3d 58633 51690 54411",
	"nasa7/word/both":              "366242ca5713f4b21862f1c7140df68b72518b256b96ec01f1c214318e800462 59268 51699 54420",
	"nasa7/word/codepack":          "9b3162889eca40e769ca2170f5bc5f9d3915a2db88b834ee332c95dee56eff34 52992 51636 54357",
	"nasa1/byte/preselected":       "ac3935f0fbdd4bdaa1a6f6148a5ee83011078a320c5511d96335031ebcb38ff1 16364 14022 14760",
	"nasa1/byte/own":               "60e1f410a922eea8a496cce17a9cb61644e82edf3244661705cba52aa560c3fc 15927 14022 14760",
	"nasa1/byte/both":              "56bfab0a19ca72361415d06b2def7cabeb5811481afc8ee8166c755302e4266e 15906 14022 14760",
	"nasa1/byte/codepack":          "24895f2611152573db8ccc98a55a8b3a061093118a8cd386e119fd559b2311f3 14342 14022 14760",
	"nasa1/word/preselected":       "0f6bc11c09b9139a5fe4a73f935d0a1fbd16875b26e081ebbdd2788bc9e875ed 16354 13932 14670",
	"nasa1/word/own":               "9f41bf3e8c8328f41ca12e6ac5db10f71b933a9c0e9677d5a1a12c16ea496712 15927 14022 14760",
	"nasa1/word/both":              "b20791aecc5e3794d3fc6c8884dbb65b96422ca738f114f2b603ea761641d9d2 16122 14022 14760",
	"nasa1/word/codepack":          "bb4c0ce77a573ac6e2e52643143c89a9263584157623d62d6464dd195c022db9 14339 14013 14751",
	"tomcatv/byte/preselected":     "80bf05353b93489189e25962d5d385966c987d70d71b19b232e730edac92db60 20335 17423 18340",
	"tomcatv/byte/own":             "776a8352e076c8d31352c2c5aa26c27b4c20a6764cc7c474a90a12621a227c15 19808 17423 18340",
	"tomcatv/byte/both":            "c8ad6db66472796f28e1ee0a11a9c3c828884055ea70fbc5b7a7422f297edf02 19774 17423 18340",
	"tomcatv/byte/codepack":        "49ddd66d33c37e7f51f8d132a65c947a765c068e2623692f39fb6d2cf35c8165 17833 17414 18331",
	"tomcatv/word/preselected":     "8c71c3dea38bc520f991af8188bc86a16f5fe3b37d6d7c29023a30b1973ced98 20319 17297 18214",
	"tomcatv/word/own":             "a3b0b0192b147da37fba0854f2efb8b19e36fd4c67a60831252431b8a9e41253 19805 17405 18322",
	"tomcatv/word/both":            "2e1f1373d443d56f2959fa06de1d8ba9256e0546c799eadbe99a21b3fc661bde 20038 17405 18322",
	"tomcatv/word/codepack":        "d6fd35246af13b8399d8b68cce95d7d24f3390e2612f024337f9bf2fcc70fb76 17830 17396 18313",
	"fpppp/byte/preselected":       "2536130672281e294ebc224c11bfa54d57b0fc04465a2806741af29b600cf23d 34542 24438 25863",
	"fpppp/byte/own":               "0a38f5b87fc6cdcf48b6a131164aff8a7c38fb0aeb8610819caa605504011fad 33145 27075 28500",
	"fpppp/byte/both":              "cc39ac1242e71cb99323abcf5e5f5f0333f11ab6993ec0f429f690645584ef71 32988 27075 28500",
	"fpppp/byte/codepack":          "927ef0e433780393e7d4295ab5c0b1437872120f4c3a868aec5b5d429b9df50b 30078 27075 28500",
	"fpppp/word/preselected":       "f75bed79cc86d28451871b7fd95623b8316771cff0cab8ba598e11e47aa6c320 33532 18444 19869",
	"fpppp/word/own":               "7151c7f6c056149a6ee4be4691778e74a6ccb1ef80250484d8e3f0fd49b9ab44 32992 25725 27150",
	"fpppp/word/both":              "f889a0a72b686b0187d107d2a9d134ae10e9d5fcccecc4bf52b42f0730c80600 32959 25743 27168",
	"fpppp/word/codepack":          "c14a5fadf32469a5996a824f437ef41a1fab591fabfdfd86bce11970d26c5f76 30064 26958 28383",
	"rv-matrix/byte/preselected":   "5f836db5ed2804b78ceb82e3a6bab0749a0d56326585d750b05a99020c0d8bd6 13830 6435 7011",
	"rv-matrix/byte/own":           "9adfecc5346d4bf217f8ccd983fd0cdfb24feaa1cba7f067349dcd86bf692fc3 12558 10935 11511",
	"rv-matrix/byte/both":          "2b0cbddd79220d0f72a0659d9faf56700ea6387cdd57d553e2a19ece10ed35e0 12560 10935 11511",
	"rv-matrix/byte/codepack":      "091da4bc15c3547a131a3369904b2e6195508d3e52b2a3d705d7aaec77422170 13822 5778 6354",
	"rv-matrix/word/preselected":   "412987b3519cad1fa656b7adc3eb4c6b120e8602b7d55073ecd75d2d0805032a 13774 6129 6705",
	"rv-matrix/word/own":           "63507e96eed640dc5cc0597f1796958aac0b6c94879c744b01b5cca51828cf2e 12558 10935 11511",
	"rv-matrix/word/both":          "820183ce63d7bf624addea17fa0f9da5b27efc9083318a1f68fde664d6c280a8 12561 10935 11511",
	"rv-matrix/word/codepack":      "04993d6790b405808831285c22bb7460faeed3476d6ec6ca08ba9be3b243be7a 13822 5778 6354",
	"rv-sieve/byte/preselected":    "c37c19db6a4b399a7983f8ee52792e075ce41442e555f6ec91514930cf3b4dde 11277 5266 5735",
	"rv-sieve/byte/own":            "d499fbabb6e589b9fbd10f94fa0d0c8c1ed45fad765e3b6f2fb16273d13ebe84 10200 8911 9380",
	"rv-sieve/byte/both":           "ff12a57b7b321a2831fff30bfa2cb8042da6cd5a6beffbbd7493497174277c24 10200 8911 9380",
	"rv-sieve/byte/codepack":       "dc6c98c8d11b25c2313d348c76e59ffe79217182151c3e1b061ea7cb782c310b 11260 4708 5177",
	"rv-sieve/word/preselected":    "cf24b4f84d71e869c753a068b12ff8ec368d45b0e3700eff01237d40b049e851 11219 4960 5429",
	"rv-sieve/word/own":            "f12de979d9637d45e7cd602d5203532ec7f26e6bf2ba1176bbc7b78badb89c54 10200 8911 9380",
	"rv-sieve/word/both":           "2ba529cb66119a853351f424b7b6c39df18aed0fa66510b0225111b7d1e12ff4 10201 8911 9380",
	"rv-sieve/word/codepack":       "1507c128a430b3607e5a49c292b9a3b0b604acbeb2aa7c08bddc46ea8354709c 11256 4699 5168",
	"rv-dispatch/byte/preselected": "1b61b3a9948d5b1a90373ff1a1ff690d258a22a2eab189e254dbf23396ff889f 14144 6817 7406",
	"rv-dispatch/byte/own":         "fd76e734a1ecfa5e0bf2b6249e509a11640f8a8298d14a8d9c664ad63dc5d11f 12750 11191 11780",
	"rv-dispatch/byte/both":        "e3b84c333eb037e0bec94470017d585568d63355b148a67f02ed66e26667dc25 12750 11191 11780",
	"rv-dispatch/byte/codepack":    "1bd3a19da60756c3c31d9dd3e8853487912e810da92d6058465d4e94d29a05ad 14130 5908 6497",
	"rv-dispatch/word/preselected": "f2d846a28fec64eafdd6bdfbf5c4f8e652f0c9eb337fedf341fc910140fe4ee1 14064 6394 6983",
	"rv-dispatch/word/own":         "3c035e93364add51c3bc5567ef471417f855eeb1cd5314766cbfbc08e782b871 12748 11173 11762",
	"rv-dispatch/word/both":        "1ced53d45c7bdeecb15396455198b07e11b691c97ff9da21e404c7c3bba1dd12 12749 11173 11762",
	"rv-dispatch/word/codepack":    "838c81b58d30c337a1bcf814824fcf728e2e494901bbd5ab545837d7b2e11d07 14130 5908 6497",
}

// romPin is an image's entry in corpusROMPins.
func romPin(t *testing.T, rom *core.ROM, crom bool) string {
	t.Helper()
	h := sha256.New()
	if crom {
		var b bytes.Buffer
		if err := rom.WriteFile(&b); err != nil {
			t.Fatal(err)
		}
		h.Write(b.Bytes())
	} else {
		h.Write(rom.Blocks)
		h.Write(rom.Table.Bytes())
	}
	pin := fmt.Sprintf("%x", h.Sum(nil))
	for _, m := range memory.Models() {
		e := core.RefillEngine{Mem: m}
		var cycles uint64
		for i := range rom.Lines {
			cycles += e.LineCycles(rom, i)
		}
		pin += fmt.Sprintf(" %d", cycles)
	}
	return pin
}

// TestCorpusROMsPinned pins every corpus ROM, the 14 MIPS programs and
// the 3 RV32 ones, byte- and word-aligned, under the preselected code,
// the program's own code, both codes together and the corpus-trained
// CodePack coder: 136 images, each with its bytes and its refill cycles.
func TestCorpusROMsPinned(t *testing.T) {
	presel, err := PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CodePackCoder()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, w := range append(append([]*workload.Workload(nil), workload.All()...), workload.RISCV()...) {
		text, err := w.Text()
		if err != nil {
			t.Fatal(err)
		}
		own, err := OwnCode(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range []bool{false, true} {
			align := "byte"
			if word {
				align = "word"
			}
			for _, c := range []struct {
				name string
				opts core.Options
			}{
				{"preselected", core.Options{Codes: []*huffman.Code{presel}, WordAligned: word}},
				{"own", core.Options{Codes: []*huffman.Code{own}, WordAligned: word}},
				{"both", core.Options{Codes: []*huffman.Code{presel, own}, WordAligned: word}},
				{"codepack", core.Options{Codec: cp, WordAligned: word}},
			} {
				key := w.Name + "/" + align + "/" + c.name
				rom, err := core.BuildROM(text, c.opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				seen++
				if got, want := romPin(t, rom, c.opts.Codec == nil), corpusROMPins[key]; got != want {
					t.Errorf("%s: pin = %q, want %q", key, got, want)
				}
			}
		}
	}
	if seen != len(corpusROMPins) {
		t.Errorf("built %d images, pinned %d", seen, len(corpusROMPins))
	}
}
